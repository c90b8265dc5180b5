"""Informalize and validate dispatch, reorder buffer and resume; compiler
backend lifetime."""

from __future__ import annotations

import os
import random
import re
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest
from conftest import make_wide_corpus, tree_digest

from herald import depgraph, validate
from herald.config import BackendConfig, PipelineConfig, RoleConfig
from herald.datastore import read_pairs
from herald.errors import BudgetExceeded, InvalidInput, SchemaError
from herald.gateway import (
    MockBackTranslator,
    MockChatProvider,
    MockInformalizer,
    MockNliJudge,
    digest,
)
from herald.pipeline import level_files, run_augment, run_informalize, run_validate
from herald.validate import CompileOutcome, ReplBackend

FAKE_REPL = (sys.executable, str(Path(__file__).parent / "fake_repl.py"))
MANIFEST = "informalize_run_manifest.json"


class RecordingInformalizer(MockInformalizer):
    """Mock informalizer with seeded, jittered latency that logs the start and
    end of every call, keyed by prompt digest, in one sequence."""

    def __init__(self, jitter_s: float = 0.0):
        self.jitter_s = jitter_s
        self.events: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def generate(self, request, sample_index):
        key = digest(request.prompt_text)
        with self._lock:
            self.events.append(("start", key))
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


def tree_without_manifest(out: Path) -> dict[str, str]:
    # The run manifest counts what this run wrote, so it differs after a resume.
    tree = tree_digest(out)
    del tree[MANIFEST]
    return tree


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
    prerequisites = depgraph.build_graph(index).prerequisites()
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
    expected = records(tmp_path / "ref")

    out = tmp_path / "cut"
    first = RecordingInformalizer(jitter_s=0.002)
    with pytest.raises(BudgetExceeded):
        informalize(index, out, first, max_in_flight=8, request_budget=30)
    written = records(out)
    assert 0 < len(written) < len(expected)
    assert written == expected[: len(written)]

    second = RecordingInformalizer(jitter_s=0.002)
    informalize(index, out, second, max_in_flight=8)
    calls = first.calls + second.calls
    assert len(first.calls) == 30
    assert sorted(calls) == sorted(reference.calls)  # each prompt paid for once
    assert tree_without_manifest(out) == tree_without_manifest(tmp_path / "ref")


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
        assert tree_without_manifest(out) == tree_without_manifest(ref), offset
        assert recorder.calls == [], "every lost record is still in the cache"


@pytest.mark.parametrize("target", ["statements_level_0.jsonl"])
def test_torn_line_before_the_last_is_an_error(tmp_path, target):
    index = make_wide_corpus(n=12)
    out = tmp_path / "inf"
    informalize(index, out, RecordingInformalizer())
    lines = (out / target).read_bytes().splitlines(keepends=True)
    lines[0] = lines[0][:5]
    (out / target).write_bytes(b"".join(lines))
    with pytest.raises(SchemaError):
        informalize(index, out, RecordingInformalizer())


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
    before = tree_without_manifest(out)
    recorder = RecordingInformalizer()
    informalize(index, out, recorder)
    assert recorder.calls == []
    assert tree_without_manifest(out) == before
    assert (out / "completed.jsonl").read_bytes() == stale


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


def test_validate_opens_items_concurrently_within_its_window(tmp_path, monkeypatch):
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
    validate_run(write_bench(tmp_path / "bench.jsonl", 24), tmp_path / "val", max_in_flight=2)
    assert peak[0] == 8  # 4 * max_in_flight
    assert not open_now


def test_validate_budget_cut_then_rerun_pays_the_rest_once(tmp_path):
    bench = write_bench(tmp_path / "bench.jsonl", 12)
    cold = []
    validate_run(bench, tmp_path / "ref", cold, max_in_flight=2)
    assert len(calls(cold)) == 120  # 72 samples, a back-translation and a verdict each for 24

    out = tmp_path / "cut"
    first, second = [], []
    with pytest.raises(BudgetExceeded):
        validate_run(bench, out, first, jitter_s=0.002, max_in_flight=2, request_budget=70)
    written = (out / "reports.jsonl").read_bytes()
    assert 0 < len(written) < len((tmp_path / "ref" / "reports.jsonl").read_bytes())
    assert written == (tmp_path / "ref" / "reports.jsonl").read_bytes()[: len(written)]
    validate_run(bench, out, second, jitter_s=0.002, max_in_flight=2)
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
    assert len(list((tmp_path / "val" / "cache").iterdir())) == 6 + 2


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
