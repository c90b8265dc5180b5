"""Four-step validation of formalization candidates with pass@k accounting.

Per candidate: compile check, then back-translation, then an LLM judge
comparing the back-translation against the original informal statement.
An item succeeds when any of its k candidates passes both checks.

Two compiler backends implement one interface: a subprocess driver speaking
line-delimited JSON to a proof-checker REPL, and a scriptable mock keyed by
statement digest so everything runs without a toolchain.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol, Sequence

from .errors import BackendUnavailable, InvalidInput, MixedK
from .gateway import (
    BACK_TRANSLATE_MARKER,
    NLI_CANDIDATE_MARKER,
    NLI_ORIGINAL_MARKER,
    TRANSLATE_MARKER,
    FinishReason,
    Gateway,
    Role,
    digest,
)

DEFAULT_HEADER = "import Mathlib\n"
DEFAULT_TIMEOUT_MS = 60000


@dataclass(frozen=True)
class CompileOutcome:
    ok: bool
    diagnostics: tuple[str, ...] = ()


class CompilerBackend(Protocol):
    def check(self, source: str, timeout_ms: int) -> CompileOutcome: ...

    def close(self) -> None: ...


class MockCompilerBackend:
    """Scriptable backend keyed by the digest of the exact source checked."""

    def __init__(self, default_ok: bool = False):
        self.default_ok = default_ok
        self._outcomes: dict[str, CompileOutcome] = {}
        self.checked: list[str] = []

    def script(self, source: str, ok: bool, diagnostics: Sequence[str] = ()) -> None:
        self._outcomes[digest(source)] = CompileOutcome(ok, tuple(diagnostics))

    def check(self, source: str, timeout_ms: int) -> CompileOutcome:
        self.checked.append(digest(source))
        outcome = self._outcomes.get(digest(source))
        if outcome is not None:
            return outcome
        if self.default_ok:
            return CompileOutcome(True)
        return CompileOutcome(False, ("not in scripted pass set",))

    def close(self) -> None:
        pass


class ReplBackend:
    """Line-delimited JSON driver for an external proof-checker REPL.

    Protocol: one request object per line, ``{"cmd": "check", "id": n,
    "source": ...}``; one response per line, ``{"id": n, "ok": bool,
    "diagnostics": [...]}``.  A request that exceeds its timeout is reported
    as ``fail("timeout")`` and the subprocess is restarted, since the stream
    is no longer in sync.
    """

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self._proc: subprocess.Popen | None = None
        self._responses: queue.Queue = queue.Queue()
        self._next_id = 0
        self._lock = threading.Lock()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise BackendUnavailable(f"cannot start {self.command[0]}: {exc}") from exc
        self._responses = queue.Queue()
        threading.Thread(target=self._reader, args=(self._proc,), daemon=True).start()

    def _reader(self, proc: subprocess.Popen) -> None:
        assert proc.stdout is not None
        with proc.stdout:
            for line in proc.stdout:
                self._responses.put(line)

    def _stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            try:
                self._proc.stdin.close()
            except BrokenPipeError:
                pass  # a line the dead process never read; nothing to deliver
            self._proc = None

    def close(self) -> None:
        self._stop()

    def check(self, source: str, timeout_ms: int) -> CompileOutcome:
        with self._lock:
            if self._proc is None or self._proc.poll() is not None:
                self._start()
            assert self._proc is not None and self._proc.stdin is not None
            self._next_id += 1
            req_id = self._next_id
            try:
                self._proc.stdin.write(
                    json.dumps({"cmd": "check", "id": req_id, "source": source}) + "\n"
                )
                self._proc.stdin.flush()
            except (OSError, ValueError) as exc:
                self._stop()
                raise BackendUnavailable(f"backend pipe broken: {exc}") from exc
            try:
                line = self._responses.get(timeout=timeout_ms / 1000.0)
            except queue.Empty:
                self._stop()
                return CompileOutcome(False, ("timeout",))
            try:
                resp = json.loads(line)
            except json.JSONDecodeError as exc:
                self._stop()
                raise BackendUnavailable(f"malformed backend response: {exc}") from exc
            if resp.get("id") != req_id:
                self._stop()
                raise BackendUnavailable(
                    f"backend answered id {resp.get('id')}, expected {req_id}"
                )
            return CompileOutcome(
                bool(resp.get("ok")), tuple(str(d) for d in resp.get("diagnostics", []))
            )


def compose_source(statement_text: str, header: str = DEFAULT_HEADER) -> str:
    """Prepend the header prelude used for models that do not emit headers."""
    if not header:
        return statement_text
    if not header.endswith("\n"):
        header += "\n"
    return header + statement_text


def compile_check(
    statement_text: str, backend: CompilerBackend, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> CompileOutcome:
    """Pass iff elaboration reports no errors within the timeout."""
    return backend.check(statement_text, timeout_ms)


def translation_prompt(informal: str) -> str:
    return (
        "Translate the following natural-language mathematical statement into a "
        "formal Lean 4 statement. Output only the Lean code.\n\n"
        f"{TRANSLATE_MARKER}\n{informal}\n"
    )


def back_translation_prompt(formal_text: str) -> str:
    return (
        "Translate the following formal Lean 4 statement back into natural "
        "language. Output only the translation.\n\n"
        f"{BACK_TRANSLATE_MARKER}\n{formal_text}\n"
    )


def nli_prompt(original_nl: str, back_nl: str) -> str:
    return (
        "Decide whether the two statements below express the same mathematical "
        "claim. Answer with exactly one token: ACCEPT if they match, REJECT "
        "otherwise.\n\n"
        f"{NLI_ORIGINAL_MARKER}\n{original_nl}\n\n"
        f"{NLI_CANDIDATE_MARKER}\n{back_nl}\n"
    )


def back_translate(formal_text: str, gateway: Gateway, role: Role) -> str:
    if not formal_text:
        raise InvalidInput("cannot back-translate empty formal text")
    completion = gateway.complete_role(role, back_translation_prompt(formal_text))[0]
    return completion.text.strip()


class NliStatus(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class NliOutcome:
    verdict: NliStatus
    parse_failure: bool = False


def _parse_verdict(text: str) -> NliOutcome:
    for token in text.split():
        if token == "ACCEPT":
            return NliOutcome(NliStatus.ACCEPT)
        if token == "REJECT":
            return NliOutcome(NliStatus.REJECT)
    return NliOutcome(NliStatus.REJECT, parse_failure=True)


def nli_check(original_nl: str, back_nl: str, gateway: Gateway, role: Role) -> NliOutcome:
    """Judge verdict from the constrained ACCEPT/REJECT token contract.

    Free prose without the token counts as a reject and is flagged so
    callers can track parse failures.
    """
    if not original_nl or not back_nl:
        raise InvalidInput("nli_check requires both texts non-empty")
    completion = gateway.complete_role(role, nli_prompt(original_nl, back_nl))[0]
    return _parse_verdict(completion.text)


class CompileStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CandidateResult:
    candidate_text: str
    compile: CompileStatus
    compile_diagnostic: str | None
    back_translation: str | None
    nli: NliStatus
    final: bool
    nli_parse_failure: bool = False

    def __post_init__(self):
        expected = self.compile == CompileStatus.PASS and self.nli == NliStatus.ACCEPT
        if self.final != expected:
            raise InvalidInput("final must equal (compile pass and nli accept)")
        if self.nli != NliStatus.SKIPPED and self.compile != CompileStatus.PASS:
            raise InvalidInput("nli may only be evaluated after a compile pass")


@dataclass(frozen=True)
class ValidationReport:
    item_id: str
    k: int
    candidates: tuple[CandidateResult, ...]
    success: bool
    short_circuit: bool = True

    def __post_init__(self):
        if len(self.candidates) > self.k:
            raise InvalidInput(f"{len(self.candidates)} candidates for k={self.k}")
        if self.success != any(c.final for c in self.candidates):
            raise InvalidInput("success must be the OR of candidate finals")


@dataclass(frozen=True)
class Roles:
    translator: Role
    back_translator: Role
    nli_judge: Role


def _evaluate_candidate(
    text: str,
    finish_reason: FinishReason,
    informal: str,
    roles: Roles,
    backend: CompilerBackend,
    gateway: Gateway,
    header: str,
    timeout_ms: int,
) -> CandidateResult:
    if finish_reason == FinishReason.ERROR or not text.strip():
        return CandidateResult(
            candidate_text=text,
            compile=CompileStatus.SKIPPED,
            compile_diagnostic=None,
            back_translation=None,
            nli=NliStatus.SKIPPED,
            final=False,
        )
    outcome = compile_check(compose_source(text, header), backend, timeout_ms)
    if not outcome.ok:
        return CandidateResult(
            candidate_text=text,
            compile=CompileStatus.FAIL,
            compile_diagnostic="; ".join(outcome.diagnostics) or "compile failed",
            back_translation=None,
            nli=NliStatus.SKIPPED,
            final=False,
        )
    back_nl = back_translate(text, gateway, roles.back_translator)
    if not back_nl:
        return CandidateResult(
            candidate_text=text,
            compile=CompileStatus.PASS,
            compile_diagnostic=None,
            back_translation="",
            nli=NliStatus.REJECT,
            final=False,
            nli_parse_failure=True,
        )
    nli = nli_check(informal, back_nl, gateway, roles.nli_judge)
    return CandidateResult(
        candidate_text=text,
        compile=CompileStatus.PASS,
        compile_diagnostic=None,
        back_translation=back_nl,
        nli=nli.verdict,
        final=nli.verdict == NliStatus.ACCEPT,
        nli_parse_failure=nli.parse_failure,
    )


def validate_item(
    informal: str,
    k: int,
    roles: Roles,
    backend: CompilerBackend,
    gateway: Gateway,
    *,
    item_id: str = "",
    header: str = DEFAULT_HEADER,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    short_circuit: bool = True,
) -> ValidationReport:
    """Sample k candidate formalizations and pipeline each through the checks.

    With ``short_circuit`` (the default) evaluation stops at the first
    candidate that passes everything; otherwise all compiling candidates go
    through back-translation and the judge.  The mode is recorded on the
    report.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    completions = gateway.complete_role(roles.translator, translation_prompt(informal), k)

    results: list[CandidateResult] = []
    for completion in completions:
        result = _evaluate_candidate(
            completion.text.strip(),
            completion.finish_reason,
            informal,
            roles,
            backend,
            gateway,
            header,
            timeout_ms,
        )
        results.append(result)
        if short_circuit and result.final:
            break

    return ValidationReport(
        item_id=item_id,
        k=k,
        candidates=tuple(results),
        success=any(r.final for r in results),
        short_circuit=short_circuit,
    )


@dataclass(frozen=True)
class BenchmarkSummary:
    dataset_name: str
    total: int
    succeeded: int
    accuracy: float
    k: int

    def __post_init__(self):
        if self.total <= 0:
            raise InvalidInput("summary needs at least one report")
        if self.accuracy != self.succeeded / self.total:
            raise InvalidInput("accuracy must equal succeeded / total")


def summarize(reports: list[ValidationReport], dataset_name: str) -> BenchmarkSummary:
    """Aggregate pass@k over reports that share one k."""
    if not reports:
        raise InvalidInput("no reports to summarize")
    ks = {r.k for r in reports}
    if len(ks) > 1:
        raise MixedK(f"reports mix k values {sorted(ks)}")
    succeeded = sum(1 for r in reports if r.success)
    return BenchmarkSummary(
        dataset_name=dataset_name,
        total=len(reports),
        succeeded=succeeded,
        accuracy=succeeded / len(reports),
        k=ks.pop(),
    )


def summary_to_json(summary: BenchmarkSummary) -> str:
    return json.dumps(
        {
            "dataset_name": summary.dataset_name,
            "total": summary.total,
            "succeeded": summary.succeeded,
            "accuracy": summary.accuracy,
            "k": summary.k,
        },
        sort_keys=True,
    )


def summary_table(summary: BenchmarkSummary) -> str:
    return (
        f"{'dataset':<24} {'k':>5} {'total':>7} {'passed':>7} {'accuracy':>9}\n"
        f"{summary.dataset_name:<24} {summary.k:>5} {summary.total:>7} "
        f"{summary.succeeded:>7} {summary.accuracy:>9.4f}"
    )


def report_to_dict(report: ValidationReport) -> dict:
    return {
        "item_id": report.item_id,
        "k": report.k,
        "success": report.success,
        "short_circuit": report.short_circuit,
        "candidates": [
            {
                "candidate_text": c.candidate_text,
                "compile": c.compile.value,
                "compile_diagnostic": c.compile_diagnostic,
                "back_translation": c.back_translation,
                "nli": c.nli.value,
                "final": c.final,
                "nli_parse_failure": c.nli_parse_failure,
            }
            for c in report.candidates
        ],
    }


def write_reports(reports: list[ValidationReport], path: str | Path) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json.dumps(report_to_dict(report), ensure_ascii=False, sort_keys=True) + "\n")
    return len(reports)
