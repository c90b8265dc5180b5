"""Informalize dispatch, reorder buffer and resume; compiler backend lifetime."""

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

from herald import depgraph
from herald.config import BackendConfig, PipelineConfig, RoleConfig
from herald.datastore import read_pairs
from herald.errors import BudgetExceeded, SchemaError
from herald.gateway import MockInformalizer, digest
from herald.pipeline import level_files, run_augment, run_informalize, run_validate
from herald.validate import ReplBackend

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
