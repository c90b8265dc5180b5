"""Four-step validation pipeline: backends, per-step checks, pass@k."""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import closing
from pathlib import Path

import pytest
from conftest import (
    ScriptedTranslator,
    benchmark_items,
    compile_check,
    script_benchmark_backend,
    validate_one,
)

from herald.config import PipelineConfig
from herald.errors import BackendUnavailable, InvalidInput, MixedK
from herald.gateway import (
    Completion,
    Gateway,
    MockBackTranslator,
    MockNliJudge,
    Role,
    digest,
)
from herald.validate import (
    TIMEOUT,
    CachedChecks,
    CandidateResult,
    CompileOutcome,
    CompileStatus,
    MockCompilerBackend,
    NliStatus,
    ReplBackend,
    Roles,
    ValidationReport,
    back_translate,
    back_translation_prompt,
    cache_checks,
    compose_source,
    nli_check,
    nli_prompt,
    read_reports,
    report_line,
    summarize,
    summary_table,
    summary_to_json,
)

FAKE_REPL = [sys.executable, str(Path(__file__).parent / "fake_repl.py")]


def mock_roles(n_passing: int = 13, k_span: int = 128) -> tuple[Roles, ScriptedTranslator]:
    translator = ScriptedTranslator(n_passing=n_passing, k_span=k_span)
    roles = Roles(
        translator=Role(provider=translator, model_id="scripted"),
        back_translator=Role(provider=MockBackTranslator(), model_id="mock-bt"),
        nli_judge=Role(provider=MockNliJudge(), model_id="mock-nli"),
    )
    return roles, translator


class TestBackends:
    def test_mock_scripting(self):
        backend = MockCompilerBackend()
        backend.script("theorem t : 1 = 1 := by rfl", True)
        assert compile_check("theorem t : 1 = 1 := by rfl", backend).ok
        outcome = compile_check("theorem broken :", backend)
        assert not outcome.ok
        assert outcome.diagnostics

    def test_repl_pass_and_fail(self):
        backend = ReplBackend(FAKE_REPL)
        try:
            assert backend.check("theorem t : OK", 5000).ok
            outcome = backend.check("theorem t : broken", 5000)
            assert not outcome.ok
            assert "unexpected token" in outcome.diagnostics[0]
        finally:
            backend.close()

    def test_repl_timeout_reports_fail(self):
        backend = ReplBackend(FAKE_REPL)
        try:
            outcome = backend.check("SLEEP forever", timeout_ms=300)
            assert not outcome.ok
            assert outcome.diagnostics == ("timeout",)
            # backend restarts cleanly after the kill
            assert backend.check("OK again", 5000).ok
        finally:
            backend.close()

    def test_repl_exit_mid_check_is_a_timeout_seen_at_once(self):
        backend = ReplBackend(FAKE_REPL)
        try:
            assert backend.check("OK first", 5000).ok
            start = time.monotonic()
            assert backend.check("EXIT now", timeout_ms=30000) == CompileOutcome(False, TIMEOUT)
            assert time.monotonic() - start < 15
            assert backend.check("OK again", 5000).ok
        finally:
            backend.close()

    def test_repl_exit_before_any_answer_is_unavailable(self):
        # A process that has never answered is more likely a bad command
        # than a bad source: no candidate is failed for it.
        backend = ReplBackend(FAKE_REPL)
        try:
            start = time.monotonic()
            with pytest.raises(BackendUnavailable, match="before answering its first check"):
                backend.check("EXIT now", timeout_ms=30000)
            assert time.monotonic() - start < 15
        finally:
            backend.close()

    def test_repl_late_line_of_a_replaced_process_stays_in_its_queue(self):
        # The stub writes its line only when told to, so the old process
        # answers after the backend has started its replacement.
        stub = [sys.executable, "-c", "import sys; sys.stdin.readline(); print('late')"]
        backend = ReplBackend(stub)
        backend._start()
        old, old_responses = backend._proc, backend._responses
        try:
            backend._start()  # as a restart after a timeout or an exit does
            old.stdin.write(b"go\n")
            old.stdin.close()
            assert old.wait(timeout=10) == 0
            assert old_responses.get(timeout=5) == b"late\n"
            assert backend._responses.empty()
        finally:
            backend.close()
            old.kill()
            old.wait(timeout=10)
            old.stdin.close()

    def test_repl_malformed_response(self):
        backend = ReplBackend(FAKE_REPL)
        try:
            with pytest.raises(BackendUnavailable):
                backend.check("GARBAGE", 5000)
        finally:
            backend.close()

    def test_repl_missing_binary(self):
        backend = ReplBackend(["/nonexistent/checker"])
        with pytest.raises(BackendUnavailable):
            backend.check("x", 1000)

    def test_compose_source_header(self):
        assert compose_source("theorem t : A", "import Mathlib\n") == (
            "import Mathlib\ntheorem t : A"
        )
        assert compose_source("theorem t : A", "") == "theorem t : A"
        assert compose_source("x", "import Mathlib").startswith("import Mathlib\n")


class InProcessRepl(ReplBackend):
    """A ReplBackend answered in this process, as ``fake_repl.py`` would
    answer; every source it is asked about is kept in ``sent``."""

    def __init__(self):
        super().__init__(["in-process"])
        self.sent: list[str] = []

    def check(self, source, timeout_ms):
        self.sent.append(source)
        ok = "OK" in source
        return CompileOutcome(ok, () if ok else ("error: unexpected token",))


def logging_repl(log: Path) -> list[str]:
    """``fake_repl.py`` appending every source it receives to ``log``."""
    return [*FAKE_REPL, "--log", str(log)]


def sources_in(log: Path) -> list[str]:
    return [json.loads(line) for line in log.read_text("utf-8").splitlines()] if log.exists() else []


class TestCachedChecks:
    SOURCES = ("import Mathlib\ntheorem a : OK", "import Mathlib\ntheorem b : no",
               "theorem c : OK", "theorem d : no")

    def test_only_a_repl_backend_is_wrapped(self, tmp_path):
        mock = MockCompilerBackend()
        assert cache_checks(mock, tmp_path) is mock
        repl = ReplBackend(FAKE_REPL)
        cached = cache_checks(repl, tmp_path)
        assert isinstance(cached, CachedChecks) and cached.backend is repl
        cached.close()
        assert not tmp_path.joinpath("checks.jsonl").exists()

    def test_a_rerun_answers_every_check_from_the_file(self, tmp_path):
        first = CachedChecks(InProcessRepl(), tmp_path)
        outcomes = [first.check(source, 1000) for source in (*self.SOURCES, self.SOURCES[0])]
        first.close()
        assert first.backend.sent == list(self.SOURCES)
        assert first.stats == {"compile_checks": 4, "check_cache_hits": 1}
        lines = [json.loads(line) for line in (tmp_path / "checks.jsonl").read_text().splitlines()]
        assert [line["key"] for line in lines] == sorted(digest(s) for s in self.SOURCES)
        assert lines[0].keys() == {"key", "ok", "diagnostics"}

        again = CachedChecks(InProcessRepl(), tmp_path)
        assert [again.check(source, 1000) for source in self.SOURCES] == outcomes[:4]
        assert again.check("theorem e : OK", 1000).ok
        again.close()
        assert again.backend.sent == ["theorem e : OK"]
        assert again.stats == {"compile_checks": 1, "check_cache_hits": 4}

    def test_truncation_at_every_offset_rechecks_only_the_lost_entries(self, tmp_path):
        ref = tmp_path / "ref"
        checks = CachedChecks(InProcessRepl(), ref)
        for source in self.SOURCES:
            checks.check(source, 1000)
        checks.close()
        data = (ref / "checks.jsonl").read_bytes()
        for offset in range(len(data) + 1):
            cut = tmp_path / f"cut{offset}"
            cut.mkdir()
            (cut / "checks.jsonl").write_bytes(data[:offset])
            checks = CachedChecks(InProcessRepl(), cut)
            for source in self.SOURCES:
                checks.check(source, 1000)
            checks.close()
            lost = data.count(b"\n") - data[:offset].count(b"\n")
            assert len(checks.backend.sent) == lost, offset
            assert (cut / "checks.jsonl").read_bytes() == data, offset
            shutil.rmtree(cut)

    def test_a_timeout_is_checked_again_on_the_rerun(self, tmp_path):
        log = tmp_path / "sent.jsonl"
        for _ in range(2):
            checks = CachedChecks(ReplBackend(logging_repl(log)), tmp_path / "cache")
            try:
                assert checks.check("theorem SLEEP", 2000) == CompileOutcome(False, TIMEOUT)
            finally:
                checks.close()
            assert checks.stats == {"compile_checks": 1, "check_cache_hits": 0}
        assert sources_in(log) == ["theorem SLEEP"] * 2
        assert not (tmp_path / "cache").exists()

    def test_an_unavailable_backend_leaves_no_entry(self, tmp_path):
        checks = CachedChecks(ReplBackend(FAKE_REPL), tmp_path)
        try:
            assert checks.check("theorem a : OK", 5000).ok
            with pytest.raises(BackendUnavailable):
                checks.check("theorem GARBAGE", 5000)
        finally:
            checks.close()
        [entry] = (tmp_path / "checks.jsonl").read_text().splitlines()
        assert json.loads(entry)["key"] == digest("theorem a : OK")


class TestSteps:
    """The steps read what the roles answered through the gateway."""

    def ask(self, tmp_path, provider, prompt_text: str) -> Completion:
        with closing(Gateway(PipelineConfig(), tmp_path)) as gw:
            return gw.submit_role(Role(provider=provider, model_id="m"), prompt_text).result()

    def test_back_translate_normal_form(self, tmp_path):
        answer = self.ask(tmp_path, MockBackTranslator(), back_translation_prompt("Theorem T :  A = B"))
        assert back_translate(answer) == "theorem t : a = b"

    def test_nli_identical_accepts(self, tmp_path):
        outcome = nli_check(self.ask(tmp_path, MockNliJudge(), nli_prompt("p holds", "p holds")))
        assert outcome.verdict == NliStatus.ACCEPT
        assert not outcome.parse_failure

    def test_nli_disjoint_rejects(self, tmp_path):
        outcome = nli_check(self.ask(tmp_path, MockNliJudge(), nli_prompt("alpha", "omega")))
        assert outcome.verdict == NliStatus.REJECT

    def test_nli_free_prose_rejects_with_flag(self, tmp_path):
        class ProseJudge:
            name = "prose"

            def generate(self, request, sample_index):
                return Completion(text="Well, the statements look fairly similar to me.")

        outcome = nli_check(self.ask(tmp_path, ProseJudge(), nli_prompt("a", "b")))
        assert outcome.verdict == NliStatus.REJECT
        assert outcome.parse_failure


class TestCandidateInvariants:
    def test_final_consistency_enforced(self):
        with pytest.raises(InvalidInput):
            CandidateResult(
                candidate_text="t",
                compile=CompileStatus.FAIL,
                compile_diagnostic="d",
                back_translation=None,
                nli=NliStatus.SKIPPED,
                final=True,
            )

    def test_nli_requires_compile_pass(self):
        with pytest.raises(InvalidInput):
            CandidateResult(
                candidate_text="t",
                compile=CompileStatus.FAIL,
                compile_diagnostic="d",
                back_translation="x",
                nli=NliStatus.ACCEPT,
                final=False,
            )

    def test_report_candidate_count_bounded(self):
        with pytest.raises(InvalidInput):
            ValidationReport(item_id="i", k=1, candidates=(), success=True)


def _validate(items, k, *, short_circuit=True, n_passing=13):
    roles, translator = mock_roles(n_passing=n_passing, k_span=128)
    backend = MockCompilerBackend(default_ok=False)
    script_benchmark_backend(backend, items, translator, header="import Mathlib\n")
    reports = []
    # A fresh cache per call, so a second call pays for its answers again.
    with (tempfile.TemporaryDirectory() as out,
          closing(Gateway(PipelineConfig(max_in_flight=8), out)) as gw):
        for item in items:
            reports.append(
                validate_one(
                    item["informal_text"],
                    k,
                    roles,
                    backend,
                    gw,
                    item_id=item["id"],
                    short_circuit=short_circuit,
                )
            )
    return reports


class TestValidateItem:
    def test_single_passing_candidate(self):
        items = benchmark_items(1)
        [report] = _validate(items, k=1)
        assert report.success
        assert report.candidates[0].final
        assert report.candidates[0].compile == CompileStatus.PASS
        assert report.candidates[0].nli == NliStatus.ACCEPT

    def test_three_failing_candidates(self):
        items = benchmark_items(20)[15:16]  # item15 never passes
        [report] = _validate(items, k=3)
        assert not report.success
        assert len(report.candidates) == 3
        assert all(not c.final for c in report.candidates)

    def test_nli_never_runs_after_compile_fail(self):
        items = benchmark_items(20)[15:16]
        [report] = _validate(items, k=4)
        for candidate in report.candidates:
            if candidate.compile != CompileStatus.PASS:
                assert candidate.nli == NliStatus.SKIPPED
                assert candidate.back_translation is None

    def test_short_circuit_stops_early(self):
        items = benchmark_items(1)  # passes at sample (7*0)%128 = 0
        [report] = _validate(items, k=8, short_circuit=True)
        assert report.success
        assert len(report.candidates) == 1
        assert report.short_circuit

    def test_exhaustive_mode_keeps_all(self):
        items = benchmark_items(1)
        [report] = _validate(items, k=8, short_circuit=False)
        assert report.success
        assert len(report.candidates) == 8
        assert not report.short_circuit

    def test_deterministic(self):
        items = benchmark_items(3)
        first = _validate(items, k=4)
        second = _validate(items, k=4)
        assert first == second

    def test_wrong_claim_exercises_judge_reject(self):
        # item04 emits a compiling-but-wrong candidate at sample 1
        items = benchmark_items(20)[4:5]
        [report] = _validate(items, k=2, short_circuit=False)
        judged = [c for c in report.candidates if c.compile == CompileStatus.PASS]
        assert any(c.nli == NliStatus.REJECT for c in judged)

    def test_backend_unavailable_aborts(self, tmp_path):
        class DownBackend:
            def check(self, source, timeout_ms):
                raise BackendUnavailable("lost")

        roles, _ = mock_roles()
        with closing(Gateway(PipelineConfig(), tmp_path)) as gw:
            with pytest.raises(BackendUnavailable):
                validate_one("statement 0 asserts.", 1, roles, DownBackend(), gw)

    def test_a_blank_is_never_sent_on(self, tmp_path):
        # A blank candidate gets no back-translation; a blank back-translation
        # is a flagged reject that gets no judge.
        prompts = []

        class Recording:
            name = "recording"

            def __init__(self, answer):
                self.answer = answer

            def generate(self, request, sample_index):
                prompts.append(request.prompt_text)
                return Completion(text=self.answer(sample_index))

        roles = Roles(
            translator=Role(provider=Recording(lambda i: "theorem t : OK" if i else " "),
                            model_id="t"),
            back_translator=Role(provider=Recording(lambda i: "\n"), model_id="bt"),
            nli_judge=Role(provider=Recording(lambda i: "ACCEPT"), model_id="nli"),
        )
        with closing(Gateway(PipelineConfig(), tmp_path)) as gw:
            report = validate_one("p holds.", 2, roles, MockCompilerBackend(default_ok=True), gw)
        blank, compiled = report.candidates
        assert (blank.compile, blank.nli) == (CompileStatus.SKIPPED, NliStatus.SKIPPED)
        assert (compiled.compile, compiled.nli) == (CompileStatus.PASS, NliStatus.REJECT)
        assert compiled.back_translation == "" and compiled.nli_parse_failure
        assert not report.success
        assert [p for p in prompts if "theorem t : OK" in p] == [
            back_translation_prompt("theorem t : OK")]
        assert not [p for p in prompts if "ACCEPT if they match" in p]

    def test_per_item_header_reaches_the_backend(self, tmp_path):
        informal = "statement 0 asserts the property."
        custom = "import Std\nset_option maxHeartbeats 400000\n"
        roles, _ = mock_roles()
        backend = MockCompilerBackend(default_ok=False)
        backend.script(compose_source(informal, custom), True)
        with closing(Gateway(PipelineConfig(), tmp_path)) as gw:
            with_custom = validate_one(
                informal, 1, roles, backend, gw, item_id="h", header=custom
            )
            with_default = validate_one(informal, 1, roles, backend, gw, item_id="h")
        assert with_custom.success
        assert not with_default.success  # default header was never scripted


class TestSummarize:
    def _report(self, item_id: str, k: int, success: bool) -> ValidationReport:
        candidate = CandidateResult(
            candidate_text="c",
            compile=CompileStatus.PASS if success else CompileStatus.FAIL,
            compile_diagnostic=None if success else "no",
            back_translation="b" if success else None,
            nli=NliStatus.ACCEPT if success else NliStatus.SKIPPED,
            final=success,
        )
        return ValidationReport(
            item_id=item_id, k=k, candidates=(candidate,), success=success
        )

    def test_accuracy(self):
        reports = [self._report(f"i{n}", 16, n < 9) for n in range(10)]
        summary = summarize(reports, "unit")
        assert summary.accuracy == 0.9
        assert summary.succeeded == 9

    def test_mixed_k(self):
        with pytest.raises(MixedK):
            summarize([self._report("a", 16, True), self._report("b", 128, True)], "unit")

    def test_renderings(self, tmp_path):
        reports = [self._report(f"i{n}", 128, n % 2 == 0) for n in range(4)]
        summary = summarize(reports, "bench")
        assert '"k": 128' in summary_to_json(summary)
        assert "bench" in summary_table(summary)
        path = tmp_path / "r.jsonl"
        path.write_text("".join(report_line(r) for r in reports), encoding="utf-8")
        assert list(read_reports(path)) == reports

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            summarize([], "empty")


class TestPassAtK:
    def test_thirteen_of_twenty(self):
        items = benchmark_items(20)
        reports = _validate(items, k=128)
        summary = summarize(reports, "constructed")
        assert summary.succeeded == 13
        assert summary.accuracy == 0.65

    def test_monotone_in_k(self):
        items = benchmark_items(20)
        reports = _validate(items, k=128, short_circuit=False)
        accuracies = []
        for k in (1, 2, 4, 8, 16, 32, 64, 128):
            solved = sum(
                1 for r in reports if any(c.final for c in r.candidates[:k])
            )
            accuracies.append(solved / len(reports))
        assert accuracies == sorted(accuracies)
        assert accuracies[-1] == 0.65

    @pytest.mark.skipif(
        not os.environ.get("HERALD_LEAN_REPL_CMD"),
        reason="no live proof-checker REPL configured",
    )
    def test_live_backend_smoke(self):
        backend = ReplBackend(os.environ["HERALD_LEAN_REPL_CMD"].split())
        try:
            good = compile_check(
                compose_source("theorem t : 1 = 1 := by rfl"), backend, 120000
            )
            assert good.ok
            bad = compile_check(compose_source("theorem t : := by"), backend, 120000)
            assert not bad.ok
        finally:
            backend.close()
