"""Informalize and validate dispatch, reorder buffer and resume; compiler
backend lifetime."""

from __future__ import annotations

import builtins
import errno
import io
import json
import logging
import os
import random
import re
import shutil
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest
from conftest import cache_keys, make_corpus, make_wide_corpus, tree_digest

from herald import cli, depgraph, validate
from herald.config import BackendConfig, PipelineConfig, RoleConfig
from herald.datastore import Direction, NLFLPair, Provenance, read_pairs
from herald.errors import BudgetExceeded, InvalidInput, ProviderError, SchemaError
from herald.gateway import (
    Completion,
    Gateway,
    MockBackTranslator,
    MockChatProvider,
    MockInformalizer,
    MockNliJudge,
    digest,
)
from herald.ingest import serialize_index
from herald.pipeline import (
    BUDGET_WINDOW,
    DISPATCH_WINDOW,
    _OrderedDispatch,
    level_files,
    load_statement_pairs,
    run_augment,
    run_informalize,
    run_ingest,
    run_mix,
    run_stratify,
    run_validate,
)
from herald.records import CorpusIndex, DeclarationRecord, DeclKind, ProofState, ProofStep
from herald.validate import CompileOutcome, ReplBackend

FAKE_REPL = (sys.executable, str(Path(__file__).parent / "fake_repl.py"))
MANIFEST = "informalize_run_manifest.json"


class RecordingInformalizer(MockInformalizer):
    """Mock informalizer with seeded, jittered latency that logs the start and
    end of every call, keyed by prompt digest, in one sequence, and keeps
    each prompt by its digest."""

    def __init__(self, jitter_s: float = 0.0):
        self.jitter_s = jitter_s
        self.events: list[tuple[str, str]] = []
        self.prompts: dict[str, str] = {}
        self._lock = threading.Lock()

    def generate(self, request, sample_index):
        key = digest(request.prompt_text)
        with self._lock:
            self.events.append(("start", key))
            self.prompts[key] = request.prompt_text
        time.sleep(random.Random(key).uniform(0, self.jitter_s))
        completion = super().generate(request, sample_index)
        with self._lock:
            self.events.append(("end", key))
        return completion

    @property
    def calls(self) -> list[str]:
        return [key for event, key in self.events if event == "start"]


@dataclass(frozen=True)
class RecordingRole(RoleConfig):
    recorder: RecordingInformalizer = field(default_factory=RecordingInformalizer)

    def build(self, role_name):
        return replace(super().build(role_name), provider=self.recorder)


def informalize(index, out: Path, recorder: RecordingInformalizer, **knobs) -> dict:
    config = PipelineConfig(roles={"informalizer": RecordingRole(recorder=recorder)}, **knobs)
    return run_informalize(index, config, out)


def records(out: Path) -> list[str]:
    """Output lines in write order: level files by level, then proofs."""
    paths = level_files(out) + [out / "proofs.jsonl"]
    return [line for p in paths if p.exists() for line in p.read_text("utf-8").splitlines()]


def canonical_position(line: str) -> tuple:
    """A record line's place in canonical order: each level's statements by
    name, then that level's proofs by name."""
    row = json.loads(line)
    return row["level"], row["record_type"] != "statement", row["source_name"]


def prompt_key(informal_text: str) -> str:
    """The prompt-digest prefix the mock informalizer writes into its answer."""
    return re.search(r"Informal rendering (\w{16})", informal_text).group(1)


def test_statement_sent_only_after_its_prerequisites_return(tmp_path):
    index = make_wide_corpus()
    recorder = RecordingInformalizer(jitter_s=0.003)
    informalize(index, tmp_path / "inf", recorder, max_in_flight=8)

    position = {(event, key[:16]): i for i, (event, key) in enumerate(recorder.events)}
    key_of = {
        p.id: prompt_key(p.informal_text)
        for path in level_files(tmp_path / "inf")
        for p in read_pairs(path)
    }
    prerequisites = depgraph.build_graph(index).prerequisites
    checked = 0
    for name, deps in prerequisites.items():
        for dep in deps:
            assert position[("end", key_of[dep])] < position[("start", key_of[name])]
            checked += 1
    assert checked > 0

    in_flight = peak = 0
    for event, _ in recorder.events:
        in_flight += 1 if event == "start" else -1
        peak = max(peak, in_flight)
    assert peak > 1, "wide levels should keep several requests in flight"


def test_tree_does_not_depend_on_max_in_flight(tmp_path):
    index = make_wide_corpus()
    trees = []
    for max_in_flight in (1, 8):
        out = tmp_path / f"inf{max_in_flight}"
        informalize(index, out, RecordingInformalizer(jitter_s=0.002), max_in_flight=max_in_flight)
        trees.append(tree_digest(out))
    assert trees[0] == trees[1]


def test_budget_cut_leaves_canonical_prefix_and_rerun_repeats_no_call(tmp_path):
    index = make_wide_corpus()
    reference = RecordingInformalizer()
    informalize(index, tmp_path / "ref", reference, max_in_flight=8)
    expected = sorted(records(tmp_path / "ref"), key=canonical_position)

    out = tmp_path / "cut"
    first = RecordingInformalizer(jitter_s=0.002)
    with pytest.raises(BudgetExceeded):
        informalize(index, out, first, max_in_flight=8, request_budget=30)
    written = records(out)
    assert 0 < len(written) < len(expected)
    assert sorted(written, key=canonical_position) == expected[: len(written)]
    for path in level_files(out) + [out / "proofs.jsonl"]:
        lines = path.read_text("utf-8").splitlines() if path.exists() else []
        assert lines == sorted(lines, key=canonical_position), path.name

    second = RecordingInformalizer(jitter_s=0.002)
    informalize(index, out, second, max_in_flight=8)
    calls = first.calls + second.calls
    assert len(first.calls) == 30
    assert sorted(calls) == sorted(reference.calls)  # each prompt paid for once
    assert tree_digest(out) == tree_digest(tmp_path / "ref")


@pytest.mark.parametrize(
    "target", ["statements_level_0.jsonl", "statements_level_1.jsonl", "proofs.jsonl"]
)
def test_resume_after_truncation_at_any_offset(tmp_path, target):
    index = make_wide_corpus(n=24)
    ref = tmp_path / "ref"
    informalize(index, ref, RecordingInformalizer())
    data = (ref / target).read_bytes()
    rng = random.Random(target)
    offsets = {0, data.index(b"\n") + 1, len(data) - 1, *rng.sample(range(len(data)), 5)}
    for offset in sorted(offsets):
        out = tmp_path / f"cut{offset}"
        shutil.copytree(ref, out)
        os.truncate(out / target, offset)
        recorder = RecordingInformalizer()
        informalize(index, out, recorder)
        assert tree_digest(out) == tree_digest(ref), offset
        assert recorder.calls == [], "every lost record is still in the cache"


@pytest.mark.parametrize("target", ["statements_level_0.jsonl", "cache/completions.jsonl"])
def test_torn_line_before_the_last_is_an_error(tmp_path, target):
    index = make_wide_corpus(n=12)
    out = tmp_path / "inf"
    informalize(index, out, RecordingInformalizer())
    lines = (out / target).read_bytes().splitlines(keepends=True)
    lines[0] = lines[0][:5]
    (out / target).write_bytes(b"".join(lines))
    with pytest.raises(SchemaError):
        informalize(index, out, RecordingInformalizer())


def first_wave(index: CorpusIndex, out: Path) -> set[str]:
    """Names of the prompt files a dry run into ``out`` should write: every
    untranslated statement whose prerequisites are all translated, and each
    step of every missing proof whose statement is translated."""
    paths = level_files(out) + [out / "proofs.jsonl"]
    on_disk = {pair.id for path in paths if path.exists() for pair in read_pairs(path)}
    prerequisites = depgraph.build_graph(index).prerequisites
    statements = {
        f"{name}.txt"
        for name in index.declarations
        if name not in on_disk and on_disk.issuperset(prerequisites[name])
    }
    steps = {
        f"{name}.step{i}.txt"
        for name in index.tactic_proof_names()
        if name in on_disk and f"{name}::proof" not in on_disk
        for i in range(len(index.proofs[name]))
    }
    return statements | steps


def check_dry_run_is_first_wave(index: CorpusIndex, out: Path) -> set[str]:
    """Dry-run into ``out``, then run for real there: the prompt files must be
    the first wave, each byte-identical to a prompt the real run sends."""
    expected = first_wave(index, out)
    counts = run_informalize(index, PipelineConfig(), out, dry_run=True)
    assert counts["dry_run"] and not (out / MANIFEST).exists()
    written = {path.name: path.read_bytes() for path in (out / "prompts").iterdir()}
    assert set(written) == expected
    # Without the cache, every prompt the run sends reaches the provider.
    shutil.rmtree(out / "cache", ignore_errors=True)
    recorder = RecordingInformalizer()
    informalize(index, out, recorder)
    sent = set(recorder.calls)
    for name, text in written.items():
        assert digest(text.decode("utf-8")) in sent, name
    # The dry run counts the tree that the real run finishes.
    manifest = json.loads((out / MANIFEST).read_text("utf-8"))
    assert {key: manifest[key] for key in counts} == {**counts, "dry_run": False}
    return expected


@pytest.mark.parametrize("corpus", [make_corpus, make_wide_corpus])
def test_dry_run_writes_the_prompts_a_fresh_run_sends_first(tmp_path, corpus):
    index = corpus()
    expected = check_dry_run_is_first_wave(index, tmp_path / "inf")
    levels = depgraph.stratify(depgraph.build_graph(index)).levels
    assert expected == {f"{name}.txt" for name in levels[0]}


def test_a_statement_kept_from_another_index_reaches_no_prompt(tmp_path):
    """A tree begun under a larger index holds a statement that this index
    lacks: to its dependent it is an outside dependency, left out of the prompt."""
    index = make_corpus(12)
    out = tmp_path / "inf"
    informalize(index, out, RecordingInformalizer())
    first, *later = level_files(out)
    for path in [*later, out / "proofs.jsonl"]:
        path.unlink()
    (kept,) = read_pairs(first)
    smaller = CorpusIndex({name: rec for name, rec in index.declarations.items()
                           if name != kept.id}, index.proofs, index.head_statements)
    dependent = next(name for name, rec in smaller.declarations.items()
                     if kept.id in rec.dependencies)
    run_informalize(smaller, PipelineConfig(), out, dry_run=True)
    prompt = (out / "prompts" / f"{dependent}.txt").read_text("utf-8")
    assert kept.informal_text not in prompt


def test_dry_run_after_a_budget_cut_writes_the_prompts_the_rerun_sends_first(tmp_path):
    index = make_wide_corpus()
    out = tmp_path / "inf"
    with pytest.raises(BudgetExceeded):
        informalize(index, out, RecordingInformalizer(jitter_s=0.002), max_in_flight=8,
                    request_budget=30)
    expected = check_dry_run_is_first_wave(index, out)
    assert any(".step" in name for name in expected), "the cut left proofs to start"
    assert any(".step" not in name for name in expected), "the cut left statements to start"


def test_output_tree_is_records_digest_manifest_and_cache(tmp_path):
    out = tmp_path / "inf"
    informalize(make_wide_corpus(n=12), out, RecordingInformalizer())
    levels = [p.name for p in level_files(out)]
    assert levels
    expected = ["cache", "config_digest.txt", MANIFEST, "proofs.jsonl", *levels]
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    assert (out / "cache").is_dir()


def test_completion_ledger_of_an_older_run_is_ignored(tmp_path):
    index = make_wide_corpus(n=12)
    out = tmp_path / "inf"
    informalize(index, out, RecordingInformalizer())
    stale = b'{"id": "not-a-declaration"}\n{"id": "tor'
    (out / "completed.jsonl").write_bytes(stale)
    before = tree_digest(out)
    recorder = RecordingInformalizer()
    informalize(index, out, recorder)
    assert recorder.calls == []
    assert tree_digest(out) == before
    assert (out / "completed.jsonl").read_bytes() == stale


def test_resume_after_log_truncation_at_any_offset(tmp_path):
    index = make_wide_corpus(n=24)
    ref = tmp_path / "ref"
    informalize(index, ref, RecordingInformalizer())
    data = (ref / "cache" / "completions.jsonl").read_bytes()
    rng = random.Random(11)
    offsets = {0, data.index(b"\n") + 1, len(data) - 1, *rng.sample(range(len(data)), 5)}
    for offset in sorted(offsets):
        out = tmp_path / f"cut{offset}"
        shutil.copytree(ref, out)
        for path in level_files(out) + [out / "proofs.jsonl"]:
            path.unlink()  # a kill loses the records of every lost completion
        os.truncate(out / "cache" / "completions.jsonl", offset)
        recorder = RecordingInformalizer()
        informalize(index, out, recorder)
        lost = data.count(b"\n") - data[:offset].count(b"\n")
        assert len(recorder.calls) == lost, offset
        assert tree_digest(out) == tree_digest(ref), offset


@pytest.mark.parametrize("damage", ["leftover tmp", "unsorted log"])
def test_rerun_without_misses_leaves_one_sorted_log(tmp_path, damage):
    index = make_wide_corpus(n=12)
    ref = tmp_path / "ref"
    informalize(index, ref, RecordingInformalizer())
    out = tmp_path / "inf"
    shutil.copytree(ref, out)
    log = out / "cache" / "completions.jsonl"
    if damage == "leftover tmp":  # a kill during the rewrite at close
        (out / "cache" / "completions.tmp").write_bytes(log.read_bytes()[:100])
    else:  # a kill before it: lines in the order the pool threads appended them
        lines = log.read_bytes().splitlines(keepends=True)
        random.Random(3).shuffle(lines)
        log.write_bytes(b"".join(lines))
    recorder = RecordingInformalizer()
    informalize(index, out, recorder)
    assert recorder.calls == []
    assert tree_digest(out) == tree_digest(ref)


def test_per_file_cache_of_an_older_version_is_not_read(tmp_path):
    index = make_wide_corpus(n=12)
    ref = tmp_path / "ref"
    reference = RecordingInformalizer()
    informalize(index, ref, reference)
    out = tmp_path / "inf"
    (out / "cache").mkdir(parents=True)
    # The older layout: one <key>.json file per sample, same key digest.
    for line in (ref / "cache" / "completions.jsonl").read_text("utf-8").splitlines():
        entry = json.loads(line)
        (out / "cache" / f"{entry.pop('key')}.json").write_text(json.dumps(entry), "utf-8")
    recorder = RecordingInformalizer()
    informalize(index, out, recorder)
    assert sorted(recorder.calls) == sorted(reference.calls)
    assert cache_keys(out / "cache") == cache_keys(ref / "cache")


class InterruptedInformalizer(RecordingInformalizer):
    """Raises KeyboardInterrupt, as Ctrl-C would, from its 20th call on."""

    def generate(self, request, sample_index):
        if len(self.calls) >= 20:
            raise KeyboardInterrupt
        return super().generate(request, sample_index)


def test_nothing_is_settled_after_the_first_error(tmp_path):
    # Three statements in flight: the third fails first; after it, the first
    # answers and the second answers blank.  The first error is the one
    # raised and no record is written after it, but the first answer lands
    # in the cache, so the rerun does not ask for it again.
    index = make_wide_corpus(n=8)
    first, second, third = depgraph.stratify(depgraph.build_graph(index)).levels[0][:3]
    failed = threading.Event()

    def subject(prompt_text: str) -> str:
        return prompt_text.rsplit("to translate:", 1)[-1].split()[1]

    class FailThenBlank(MockInformalizer):
        def generate(self, request, sample_index):
            if subject(request.prompt_text) == third:
                failed.set()
                raise ProviderError(self.name, "401 unauthorized")
            assert failed.wait(10)
            time.sleep(0.05)  # the failure reaches the dispatch first
            if subject(request.prompt_text) == second:
                return Completion(text="  ")
            return super().generate(request, sample_index)

    out = tmp_path / "inf"
    with pytest.raises(ProviderError, match="401"):
        informalize(index, out, FailThenBlank(), max_in_flight=3)
    assert records(out) == []

    rerun = RecordingInformalizer()
    informalize(index, out, rerun)
    asked = {subject(rerun.prompts[key]) for key in rerun.calls}
    assert first not in asked and {second, third} <= asked
    informalize(index, tmp_path / "ref", RecordingInformalizer())
    assert tree_digest(out) == tree_digest(tmp_path / "ref")


@pytest.mark.parametrize("error", [BudgetExceeded, KeyboardInterrupt])
def test_log_is_closed_and_sorted_when_a_stage_raises(tmp_path, monkeypatch, error):
    from herald import datastore  # the cache log's module

    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(datastore, "open", recording_open, raising=False)
    out = tmp_path / "inf"
    with pytest.raises(error):
        if error is BudgetExceeded:
            informalize(make_wide_corpus(), out, RecordingInformalizer(), request_budget=20)
        else:
            informalize(make_wide_corpus(), out, InterruptedInformalizer())
    assert opened and all(handle.closed for handle in opened)
    keys = cache_keys(out / "cache")
    assert len(keys) >= 10 and keys == sorted(keys)


def test_each_stage_logs_its_gateway_counters_at_close(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="herald.pipeline")
    index = make_wide_corpus(n=12)
    informalize(index, tmp_path / "inf", RecordingInformalizer())
    run_augment(index, PipelineConfig(), tmp_path / "aug", tactic=True)
    validate_run(write_bench(tmp_path / "bench.jsonl", 2), tmp_path / "val")
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert [line.split(":")[0] for line in lines] == ["informalize", "augment", "validate"]
    for line in lines:
        for counter in ("provider_calls", "retries", "cache_hits", "truncated"):
            assert f"{counter} " in line


def _record_repl_processes(monkeypatch) -> list:
    procs = []
    start = ReplBackend._start

    def recording_start(backend):
        start(backend)
        procs.append(backend._proc)

    monkeypatch.setattr(ReplBackend, "_start", recording_start)
    return procs


def test_validate_closes_repl_backend(tmp_path, monkeypatch):
    procs = _record_repl_processes(monkeypatch)
    bench = tmp_path / "bench.jsonl"
    bench.write_text('{"id": "a", "informal_text": "p holds."}\n', encoding="utf-8")
    config = PipelineConfig(backend=BackendConfig(kind="repl", command=FAKE_REPL))
    run_validate(bench, config, tmp_path / "val", k=2)
    assert procs and all(proc.poll() is not None for proc in procs)


@pytest.mark.parametrize("stage", ["augment", "validate"])
def test_repl_backend_closed_when_the_gateway_close_raises(tmp_path, monkeypatch, stage):
    procs = _record_repl_processes(monkeypatch)
    close = Gateway.close

    def failing_close(gateway):
        close(gateway)
        raise OSError(errno.ENOSPC, "no space left on device")  # say, rewriting the log

    monkeypatch.setattr(Gateway, "close", failing_close)
    config = PipelineConfig(backend=BackendConfig(kind="repl", command=FAKE_REPL))
    with pytest.raises(OSError, match="no space"):
        if stage == "augment":
            run_augment(make_wide_corpus(n=12), config, tmp_path / "aug", tactic=True)
        else:
            run_validate(write_bench(tmp_path / "bench.jsonl", 2), config, tmp_path / "val", k=2)
    assert procs and all(proc.poll() is not None for proc in procs)


def one_proof_index(goal: str) -> CorpusIndex:
    """One theorem ``T.foo`` whose one-step proof starts from ``n : Nat ⊢ goal``."""
    before = ProofState(hypotheses=(("n", "Nat"),), goals=(goal,))
    after = ProofState(hypotheses=(("n", "Nat"),))
    decl = DeclarationRecord(
        full_name="T.foo",
        kind=DeclKind.THEOREM,
        signature=f"theorem foo (n : Nat) : {goal}",
        docstring=None,
        namespace_path=("T",),
        file_path="T.lean",
        line_span=(1, 2),
        dependencies=frozenset(),
        is_tactic_proof=True,
    )
    return CorpusIndex({"T.foo": decl}, proofs={"T.foo": (ProofStep("simp", before, after, 0),)})


def test_tactic_aug_prompt_carries_the_whole_synthesized_signature(tmp_path):
    recorder = RecordingInformalizer()
    config = PipelineConfig(roles={"informalizer": RecordingRole(recorder=recorder)})
    run_augment(one_proof_index("let x := n; x = n"), config, tmp_path / "aug", tactic=True)
    [prompt] = recorder.prompts.values()
    assert "theorem T.foo_tac_0 (n : Nat) : let x := n; x = n" in prompt.splitlines()


def test_tactic_aug_of_a_goal_with_a_line_starting_with_theorem(tmp_path):
    export = tmp_path / "corpus.json"
    export.write_text(serialize_index(one_proof_index("n = n\ntheorem b : True")), "utf-8")
    out = tmp_path / "aug"
    assert cli.main(["--out", str(out), "augment", "--index", str(export), "--tactic"]) == 0
    [pair] = read_pairs(out / "tactic_aug.jsonl")
    assert pair.formal_text == "theorem T.foo_tac_0 (n : Nat) : n = n\ntheorem b : True := by sorry"


def test_augment_closes_repl_backend(tmp_path, monkeypatch):
    procs = _record_repl_processes(monkeypatch)
    config = PipelineConfig(backend=BackendConfig(kind="repl", command=FAKE_REPL))
    run_augment(make_wide_corpus(n=12), config, tmp_path / "aug", tactic=True)
    assert procs and all(proc.poll() is not None for proc in procs)


# --- validate ----------------------------------------------------------------

_SAMPLE_RE = re.compile(r"mock_([0-9a-f]{12})_(\d+)")


class RecordingProvider:
    """A stock mock with seeded, jittered latency, logging the start and end
    of every call as (event, provider, prompt digest, sample index, prompt)."""

    def __init__(self, inner, events: list, jitter_s: float):
        self.name = inner.name
        self._inner = inner
        self._events = events
        self._jitter_s = jitter_s

    def generate(self, request, sample_index):
        key = (self.name, digest(request.prompt_text), sample_index)
        self._events.append(("start", *key, request.prompt_text))
        time.sleep(random.Random(repr(key)).uniform(0, self._jitter_s))
        completion = self._inner.generate(request, sample_index)
        self._events.append(("end", *key, request.prompt_text))
        return completion


@dataclass(frozen=True)
class WrappedRole(RoleConfig):
    events: list = field(default_factory=list, compare=False)
    jitter_s: float = 0.0

    def build(self, role_name):
        role = super().build(role_name)
        return replace(role, provider=RecordingProvider(role.provider, self.events,
                                                        self.jitter_s))


class OddSampleBackend:
    """Compiles the mock translator's odd-numbered samples only."""

    def check(self, source, timeout_ms):
        return CompileOutcome(int(_SAMPLE_RE.search(source).group(2)) % 2 == 1, ("even",))

    def close(self):
        pass


class OddSampleBackendConfig(BackendConfig):
    def build(self):
        return OddSampleBackend()


def write_bench(path: Path, n: int) -> Path:
    """Alternating short items (the mock judge accepts their first compiling
    candidate) and long ones (it rejects every candidate)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            text = (f"every ring is a field ({i})" if i % 2 == 0 else
                    f"for every ring there is a field such that the ring is bounded in case {i}")
            fh.write(f'{{"id": "item{i:02d}", "informal_text": "{text}"}}\n')
    return path


def validate_run(bench: Path, out: Path, events: list | None = None, jitter_s: float = 0.0,
                 k: int = 6, **knobs):
    events = [] if events is None else events
    role = WrappedRole(events=events, jitter_s=jitter_s)
    config = PipelineConfig(roles={"translator": role, "back_translator": role,
                                   "nli_judge": role},
                            backend=OddSampleBackendConfig(), **knobs)
    return run_validate(bench, config, out, k=k)


def calls(events: list) -> list[tuple]:
    return [event[1:4] for event in events if event[0] == "start"]


def test_validate_tree_does_not_depend_on_max_in_flight(tmp_path):
    bench = write_bench(tmp_path / "bench.jsonl", 12)
    trees = []
    for max_in_flight in (1, 8):
        out = tmp_path / f"val{max_in_flight}"
        summary = validate_run(bench, out, jitter_s=0.002, max_in_flight=max_in_flight)
        assert (summary.total, summary.succeeded) == (12, 6)
        trees.append(tree_digest(out))
    assert trees[0] == trees[1]


def watch_pending(monkeypatch) -> list[int]:
    """Patch the dispatch to keep, in the returned list's one entry, the peak
    number of futures it has pending."""
    peak = [0]
    submit = _OrderedDispatch.submit

    def counting_submit(dispatch, future, tag):
        submit(dispatch, future, tag)
        peak[0] = max(peak[0], len(dispatch._pending))

    monkeypatch.setattr(_OrderedDispatch, "submit", counting_submit)
    return peak


@pytest.mark.parametrize("request_budget, depth", [(None, DISPATCH_WINDOW), (1000, BUDGET_WINDOW)],
                         ids=["unbudgeted", "budgeted"])
def test_validate_opens_items_concurrently_within_the_dispatch_window(
        tmp_path, monkeypatch, request_budget, depth):
    open_now, peak = set(), [0]
    start, settle = validate.ItemRun.start, validate.ItemRun.settle

    def counting_start(run):
        open_now.add(run)
        peak[0] = max(peak[0], len(open_now))
        start(run)

    def counting_settle(run, tag, completion):
        report = settle(run, tag, completion)
        if report is not None:
            open_now.discard(run)
        return report

    monkeypatch.setattr(validate.ItemRun, "start", counting_start)
    monkeypatch.setattr(validate.ItemRun, "settle", counting_settle)
    pending = watch_pending(monkeypatch)
    validate_run(write_bench(tmp_path / "bench.jsonl", 24), tmp_path / "val", k=6,
                 max_in_flight=2, request_budget=request_budget)
    assert peak[0] > 1
    window = depth * 2  # W = depth * max_in_flight
    assert window <= pending[0] <= window + 6 - 1  # an item's k samples go out together
    assert not open_now


def flat_corpus(n: int) -> CorpusIndex:
    """``n`` level-0 declarations, every tenth a theorem with a three-step
    proof, and ``n // 100`` level-1 declarations that each cite two of them."""
    declarations, proofs = {}, {}
    state = ProofState(hypotheses=(), goals=("G",))
    for i in range(n + n // 100):
        name = f"Flat.d{i}"
        deps = frozenset({f"Flat.d{i - n}", f"Flat.d{i - n + 1}"}) if i >= n else frozenset()
        has_proof = i < n and i % 10 == 0
        declarations[name] = DeclarationRecord(
            name, DeclKind.THEOREM, f"theorem d{i} : P{i}", None, ("Flat",), "Flat.lean",
            (i + 1, i + 1), deps, has_proof,
        )
        if has_proof:
            proofs[name] = tuple(ProofStep(f"tac{j}", state, state, j) for j in range(3))
    return CorpusIndex(declarations, proofs=proofs)


def run_stage_of_5000_units(stage: str, out: Path) -> int:
    """Run ``stage`` on 5000 units at ``max_in_flight`` 2 with zero-latency
    mocks; the size of its largest unit."""
    config = PipelineConfig(max_in_flight=2)
    if stage == "informalize":
        index = flat_corpus(5000)
        assert len(depgraph.stratify(depgraph.build_graph(index)).levels[0]) == 5000
        run_informalize(index, config, out)
        return 3  # a proof's steps
    if stage == "augment":
        pairs = [NLFLPair(id=f"s{i}", formal_text=f"theorem s{i} : True",
                          informal_text=f"Statement {i} holds.", direction=Direction.NL_TO_FL,
                          provenance=Provenance.ORIGINAL) for i in range(5000)]
        run_augment(CorpusIndex({}), config, out, tactic=False, informal=True,
                    original_pairs=pairs)
        return 1  # a first variant
    validate_run(write_bench(out.parent / "bench.jsonl", 5000), out, k=1, max_in_flight=2)
    return 1  # an item's k samples


@pytest.mark.parametrize("stage", ["informalize", "augment", "validate"])
def test_pending_futures_stay_within_the_window_plus_one_unit(tmp_path, monkeypatch, stage):
    pending = watch_pending(monkeypatch)
    largest_unit = run_stage_of_5000_units(stage, tmp_path / stage)
    window = DISPATCH_WINDOW * 2  # W = DISPATCH_WINDOW * max_in_flight
    assert 0 < pending[0] <= window + largest_unit - 1  # W, plus one unit


def test_unwritten_records_stay_within_the_window_plus_one_unit(tmp_path, monkeypatch):
    # Records are sent in the order they are written, so what waits for an
    # earlier record is bounded by the window, not by the corpus.
    peak = [0]
    finish = _OrderedDispatch.finish

    def counting_finish(dispatch, key, path, line):
        finish(dispatch, key, path, line)
        peak[0] = max(peak[0], len(dispatch._finished))

    monkeypatch.setattr(_OrderedDispatch, "finish", counting_finish)
    largest_unit = run_stage_of_5000_units("informalize", tmp_path / "informalize")
    window = DISPATCH_WINDOW * 2  # W = DISPATCH_WINDOW * max_in_flight
    assert 0 < peak[0] <= window + largest_unit, peak[0]


class SlowFirstCallProvider:
    """A stock mock whose first call answers only after ``delay_s``."""

    def __init__(self, inner, delay_s: float):
        self.name = inner.name
        self._inner = inner
        self._delay_s = delay_s
        self._first = threading.Lock()  # taken by the first call, never released

    def generate(self, request, sample_index):
        if self._first.acquire(blocking=False):
            time.sleep(self._delay_s)
        return self._inner.generate(request, sample_index)


@dataclass(frozen=True)
class SlowFirstCallRole(RoleConfig):
    delay_s: float = 0.3

    def build(self, role_name):
        role = super().build(role_name)
        return replace(role, provider=SlowFirstCallProvider(role.provider, self.delay_s))


def test_every_report_is_written_when_a_window_of_them_waits_on_a_slow_item(tmp_path):
    # The first back-translation is slow, so later items finish behind its
    # item until unwritten reports fill the window; that item's last request
    # is then the only one pending, and settling it leaves nothing pending.
    n = DISPATCH_WINDOW * 2 * 3  # three windows at max_in_flight 2
    config = PipelineConfig(roles={"translator": RoleConfig(),
                                   "back_translator": SlowFirstCallRole(),
                                   "nli_judge": RoleConfig()},
                            backend=OddSampleBackendConfig(), max_in_flight=2)
    summary = run_validate(write_bench(tmp_path / "bench.jsonl", n), config, tmp_path / "val",
                           k=6)
    assert (summary.total, summary.succeeded) == (n, n // 2)
    assert len((tmp_path / "val" / "reports.jsonl").read_text("utf-8").splitlines()) == n


def test_every_record_is_written_when_a_window_of_them_waits_on_a_proof(tmp_path):
    # One pool thread answers in the order sent: the level-1 statements sent
    # after the proof's steps finish before its summary, filling the window.
    state = ProofState(hypotheses=(), goals=("G",))
    declarations = {"Root.a": DeclarationRecord(
        "Root.a", DeclKind.THEOREM, "theorem a : P", None, ("Root",), "Root.lean", (1, 1),
        frozenset(), True)}
    for i in range(DISPATCH_WINDOW + 1):
        declarations[f"Root.b{i}"] = DeclarationRecord(
            f"Root.b{i}", DeclKind.THEOREM, f"theorem b{i} : Q{i}", None, ("Root",),
            "Root.lean", (i + 2, i + 2), frozenset({"Root.a"}), False)
    steps = tuple(ProofStep(f"tac{j}", state, state, j) for j in range(3))
    index = CorpusIndex(declarations, proofs={"Root.a": steps})
    run_informalize(index, PipelineConfig(max_in_flight=1), tmp_path / "inf")
    assert len(records(tmp_path / "inf")) == len(declarations) + 1


@pytest.mark.parametrize("max_in_flight", [2, 8])
def test_validate_budget_cut_then_rerun_pays_the_rest_once(tmp_path, max_in_flight):
    """At 2 the budget's shallow window lets the cut keep a prefix of the
    reports.  At 8 the window holds 11 of the 12 items' samples, so the cut
    lands before any verdict: the rerun takes what it paid for from the cache."""
    bench = write_bench(tmp_path / "bench.jsonl", 12)
    cold = []
    validate_run(bench, tmp_path / "ref", cold, max_in_flight=max_in_flight)
    assert len(calls(cold)) == 120  # 72 samples, a back-translation and a verdict each for 24

    out = tmp_path / "cut"
    first, second = [], []
    with pytest.raises(BudgetExceeded):
        validate_run(bench, out, first, jitter_s=0.002, max_in_flight=max_in_flight,
                     request_budget=70)
    reports = out / "reports.jsonl"
    if max_in_flight == 2:
        written = reports.read_bytes()
        assert 0 < len(written) < len((tmp_path / "ref" / "reports.jsonl").read_bytes())
    else:
        written = reports.read_bytes() if reports.exists() else b""
    assert written == (tmp_path / "ref" / "reports.jsonl").read_bytes()[: len(written)]
    validate_run(bench, out, second, jitter_s=0.002, max_in_flight=max_in_flight)
    assert len(calls(first)) == 70
    assert len(calls(second)) == 120 - 70
    assert sorted(calls(first) + calls(second)) == sorted(calls(cold))
    assert tree_digest(out) == tree_digest(tmp_path / "ref")


def test_validate_report_waits_for_its_slowest_sample(tmp_path):
    class SlowLastSample(MockChatProvider):
        def generate(self, request, sample_index):
            if sample_index == 5:
                time.sleep(0.2)  # returns long after candidate 0's verdict
            return super().generate(request, sample_index)

    bench = write_bench(tmp_path / "bench.jsonl", 1)
    config = PipelineConfig(roles={"translator": RecordingRole(recorder=SlowLastSample())},
                            max_in_flight=8)
    summary = run_validate(bench, config, tmp_path / "val", k=6)
    assert summary.succeeded == 1
    assert len(cache_keys(tmp_path / "val" / "cache")) == 6 + 2


def test_validate_resume_after_truncation_at_any_offset(tmp_path):
    bench = write_bench(tmp_path / "bench.jsonl", 8)
    ref = tmp_path / "ref"
    validate_run(bench, ref)
    data = (ref / "reports.jsonl").read_bytes()
    rng = random.Random(5)
    offsets = {0, data.index(b"\n") + 1, len(data) - 1, *rng.sample(range(len(data)), 5)}
    for offset in sorted(offsets):
        out = tmp_path / f"cut{offset}"
        shutil.copytree(ref, out)
        os.truncate(out / "reports.jsonl", offset)
        (out / "summary.json").unlink()
        events = []
        validate_run(bench, out, events)
        assert tree_digest(out) == tree_digest(ref), offset
        assert calls(events) == [], "every lost report's completions are in the cache"


@pytest.mark.parametrize("damage, error", [
    ("torn first line", SchemaError),
    ("lines swapped", SchemaError),
    ("report past the benchmark", SchemaError),
    ("other k", InvalidInput),
])
def test_validate_resume_refuses_a_file_it_did_not_write(tmp_path, damage, error):
    bench = write_bench(tmp_path / "bench.jsonl", 4)
    out = tmp_path / "val"
    validate_run(bench, out)
    path = out / "reports.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    if damage == "torn first line":
        lines[0] = lines[0][:5]
    elif damage == "lines swapped":
        lines[0], lines[1] = lines[1], lines[0]
    elif damage == "report past the benchmark":
        write_bench(bench, 3)
    path.write_bytes(b"".join(lines))
    with pytest.raises(error):
        validate_run(bench, out, k=5 if damage == "other k" else 6)


class InProcessRepl(ReplBackend):
    """A REPL backend answered in this process: the mock translator's odd
    samples and every source without a sample index compile.  Every source
    it is asked about is appended to ``sent``."""

    def __init__(self, sent: list):
        super().__init__(["in-process"])
        self.sent = sent

    def check(self, source, timeout_ms):
        self.sent.append(source)
        sample = _SAMPLE_RE.search(source)
        return CompileOutcome(sample is None or int(sample.group(2)) % 2 == 1, ("even",))


@dataclass(frozen=True)
class InProcessReplConfig(BackendConfig):
    sent: list = field(default_factory=list, compare=False)

    def build(self):
        return InProcessRepl(self.sent)


def repl_validate_run(bench: Path, out: Path, events: list | None = None) -> list[str]:
    """:func:`validate_run` with the in-process REPL; the sources it checked."""
    role = WrappedRole(events=[] if events is None else events)
    backend = InProcessReplConfig()
    config = PipelineConfig(roles={"translator": role, "back_translator": role,
                                   "nli_judge": role},
                            backend=backend, max_in_flight=2)
    run_validate(bench, config, out, k=6)
    return backend.sent


def test_mock_backends_write_no_check_log(tmp_path):
    validate_run(write_bench(tmp_path / "bench.jsonl", 4), tmp_path / "val")
    run_augment(make_wide_corpus(n=12), PipelineConfig(), tmp_path / "aug", tactic=True)
    assert sorted(p.name for p in (tmp_path / "val" / "cache").iterdir()) == ["completions.jsonl"]
    assert sorted(p.name for p in (tmp_path / "aug" / "cache").iterdir()) == ["completions.jsonl"]


def test_validate_resume_after_check_log_truncation_at_any_offset(tmp_path):
    bench = write_bench(tmp_path / "bench.jsonl", 6)
    ref = tmp_path / "ref"
    checked = repl_validate_run(bench, ref)
    assert len(checked) == len(set(checked)) == 3 * 2 + 3 * 6
    data = (ref / "cache" / "checks.jsonl").read_bytes()
    rng = random.Random(7)
    offsets = {0, data.index(b"\n") + 1, len(data) - 1, *rng.sample(range(len(data)), 5)}
    for offset in sorted(offsets):
        out = tmp_path / f"cut{offset}"
        shutil.copytree(ref, out)
        # A kill loses the reports that the lost checks were waiting for.
        (out / "reports.jsonl").unlink()
        (out / "summary.json").unlink()
        os.truncate(out / "cache" / "checks.jsonl", offset)
        events = []
        rechecked = repl_validate_run(bench, out, events)
        lost = data.count(b"\n") - data[:offset].count(b"\n")
        assert len(rechecked) == lost, offset
        assert calls(events) == [], "every completion is in the cache"
        assert tree_digest(out) == tree_digest(ref), offset


def test_validate_and_augment_log_their_check_counters_at_close(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="herald.pipeline")
    bench = write_bench(tmp_path / "bench.jsonl", 2)
    for _ in range(2):
        repl_validate_run(bench, tmp_path / "val")
    config = PipelineConfig(backend=InProcessReplConfig())
    for _ in range(2):
        run_augment(make_wide_corpus(n=12), config, tmp_path / "aug", tactic=True)
    lines = [r.getMessage() for r in caplog.records if "compile_checks" in r.getMessage()]
    synthesized = len((tmp_path / "aug" / "cache" / "checks.jsonl").read_text().splitlines())
    assert lines == [
        "validate: compile_checks 8, check_cache_hits 0",  # 1 + 6 candidates and 1 repeat
        "validate: compile_checks 0, check_cache_hits 0",  # both reports on disk
        f"augment: compile_checks {synthesized}, check_cache_hits 0",
        f"augment: compile_checks 0, check_cache_hits {synthesized}",
    ]


def test_short_circuit_sends_no_back_translation_before_the_previous_verdict(tmp_path):
    events = []
    bench = write_bench(tmp_path / "bench.jsonl", 8)
    validate_run(bench, tmp_path / "val", events, jitter_s=0.003, k=8, max_in_flight=8)
    per_item: dict[str, list[tuple[str, str, int]]] = {}
    for event, provider, _, _, prompt in events:
        if provider in (MockBackTranslator.name, MockNliJudge.name):
            item, index = _SAMPLE_RE.search(prompt).groups()
            per_item.setdefault(item, []).append((event, provider, int(index)))
    checked = 0
    for log in per_item.values():
        verdicts = set()
        for event, provider, index in log:
            if provider == MockNliJudge.name and event == "end":
                verdicts.add(index)
            elif provider == MockBackTranslator.name and event == "start":
                assert verdicts == set(range(1, index, 2)), (log, index)
                checked += 1
    assert checked == 4 * 4 + 4  # every odd candidate of a long item, the first of a short


# --- the completion log belongs to the thread that runs the stage -------------


def run_stages(root: Path, max_in_flight: int) -> None:
    """informalize, augment (tactic and informal) and validate, with jittered
    providers, at ``max_in_flight``."""
    index = make_wide_corpus()
    informalize(index, root / "inf", RecordingInformalizer(jitter_s=0.002),
                max_in_flight=max_in_flight)
    run_augment(index, PipelineConfig(max_in_flight=max_in_flight), root / "aug",
                tactic=True, informal=True, original_pairs=load_statement_pairs(root / "inf"))
    validate_run(write_bench(root / "bench.jsonl", 8), root / "val", jitter_s=0.002,
                 max_in_flight=max_in_flight)


def test_only_the_stage_thread_appends_to_the_completion_log(tmp_path, monkeypatch):
    from herald.datastore import KeyedLog

    appends = []
    add = KeyedLog.add

    def recording_add(log, key, value):
        appends.append((log._path.relative_to(tmp_path).as_posix(), threading.get_ident()))
        add(log, key, value)

    monkeypatch.setattr(KeyedLog, "add", recording_add)
    run_stages(tmp_path, max_in_flight=8)
    assert {path for path, _ in appends} == {
        f"{stage}/cache/completions.jsonl" for stage in ("inf", "aug", "val")
    }
    assert {thread for _, thread in appends} == {threading.get_ident()}


def test_each_answer_is_in_the_log_on_disk_before_it_is_settled(tmp_path, monkeypatch):
    # What a kill can lose is bounded by this: every settled answer is on disk.
    run = _OrderedDispatch.run
    settled: Counter = Counter()

    def checking_run(dispatch, send, settle):
        log = dispatch._gateway.cache_dir / "completions.jsonl"

        def checked_settle(tag, completion):
            settled[completion.text] += 1
            with open(log, encoding="utf-8") as fh:
                on_disk = Counter(json.loads(line)["text"] for line in fh)
            assert on_disk[completion.text] >= settled[completion.text], tag
            settle(tag, completion)

        run(dispatch, send, checked_settle)

    monkeypatch.setattr(_OrderedDispatch, "run", checking_run)
    run_stages(tmp_path, max_in_flight=8)
    assert sum(settled.values()) > 100


def test_stage_trees_are_identical_at_max_in_flight_1_2_and_8(tmp_path):
    trees = []
    for max_in_flight in (1, 2, 8):
        run_stages(tmp_path / str(max_in_flight), max_in_flight)
        trees.append(tree_digest(tmp_path / str(max_in_flight)))
    assert trees[0] == trees[1] == trees[2]


# --- the config check and the claim ------------------------------------------------


@pytest.mark.parametrize("stage", ["ingest", "stratify", "informalize", "augment", "mix",
                                   "validate"])
@pytest.mark.parametrize("name, value, message", [
    ("backend", BackendConfig(kind="lean"), '$.knobs.backend.kind must be "mock" or "repl"'),
    ("request_budget", -1, "request_budget must be >= 0, got -1"),
    ("roles", {"informalizer": RoleConfig(temperature="hot")},
     "$.roles.informalizer.temperature: must be a number"),
], ids=["backend_kind", "request_budget", "role_temperature"])
def test_every_stage_checks_a_field_set_in_code_before_it_writes(tmp_path, stage, name,
                                                                 value, message):
    config = PipelineConfig()
    setattr(config, name, value)  # as a harness sets a field after construction
    index, out = make_corpus(4), tmp_path / "out"
    bench = tmp_path / "bench.jsonl"
    bench.write_text('{"id": "b0", "informal_text": "p holds."}\n', encoding="utf-8")
    runs = {
        "ingest": lambda: run_ingest(config, out),
        "stratify": lambda: run_stratify(index, config, out),
        "informalize": lambda: run_informalize(index, config, out),
        "augment": lambda: run_augment(index, config, out),
        "mix": lambda: run_mix([], [], [], [], config, out, total=1),
        "validate": lambda: run_validate(bench, config, out),
    }
    with pytest.raises((InvalidInput, SchemaError)) as err:
        runs[stage]()
    assert message in str(err.value)
    assert not out.exists()


class Killed(BaseException):
    """A kill, as far as the code under test can tell: it runs no further."""


class CutAfterFirstBytes:
    """A file opened for writing whose first write keeps five characters, then dies."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, text):
        self.handle.write(text[:5])
        self.handle.flush()
        raise Killed

    def writelines(self, lines):
        self.write("".join(lines))

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def test_a_claim_killed_after_its_first_bytes_claims_nothing(tmp_path, monkeypatch):
    index = make_corpus(4)
    run_informalize(index, PipelineConfig(), tmp_path / "clean")
    real_open = io.open

    def cut_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).stem == "config_digest":
            return CutAfterFirstBytes(handle)
        return handle

    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(io, "open", cut_open)
        patch.setattr(builtins, "open", cut_open)
        with pytest.raises(Killed):
            run_informalize(index, PipelineConfig(), out)
    run_informalize(index, PipelineConfig(), out)
    assert tree_digest(out) == tree_digest(tmp_path / "clean")


def test_an_ingest_killed_mid_write_keeps_the_previous_index(tmp_path, monkeypatch):
    export, out = tmp_path / "corpus.json", tmp_path / "out"
    export.write_text(serialize_index(make_corpus(4)), encoding="utf-8")
    config = PipelineConfig(corpus_export=export)
    run_ingest(config, out)
    before = (out / "index.json").read_bytes()
    assert before == serialize_index(make_corpus(4)).encode("utf-8")
    export.write_text(serialize_index(make_corpus(8)), encoding="utf-8")
    real_open = io.open

    def cut_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).stem == "index":
            return CutAfterFirstBytes(handle)
        return handle

    with monkeypatch.context() as patch:
        patch.setattr(io, "open", cut_open)
        patch.setattr(builtins, "open", cut_open)
        with pytest.raises(Killed):
            run_ingest(config, out)
    assert (out / "index.json").read_bytes() == before
    run_ingest(config, out)
    assert (out / "index.json").read_bytes() == serialize_index(make_corpus(8)).encode("utf-8")
