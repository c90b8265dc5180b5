"""A stage killed at any instant reruns to the tree a clean run writes.

Each stage runs as its own ``python -m herald.cli`` process with the mock
roles, on inputs that take about a second.  A clean run is timed; fresh runs
are then sent SIGKILL at three seeded instants, near a quarter, a half and
three quarters of that time, and each is rerun to completion.  Every file of the rerun's tree, the completion
log included, must equal the clean tree's.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import corpus_name, make_corpus, tree_digest

from herald.ingest import serialize_index
from herald.records import CorpusIndex

SRC = Path(__file__).resolve().parent.parent / "src"
DECLARATIONS = 4000
BENCH_ITEMS = 3000
KILLS = 3
TIMEOUT_S = 120


def wide_corpus(n: int) -> CorpusIndex:
    """``make_corpus(n)`` with declaration i depending on i // 2 alone, so
    the levels number about log2(n) rather than n."""
    index = make_corpus(n)
    declarations = {
        name: replace(rec, dependencies=frozenset({corpus_name(i // 2)} if i else ()))
        for i, (name, rec) in enumerate(index.declarations.items())
    }
    return replace(index, declarations=declarations)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """The corpus, the bench, the config and a clean informalize tree, which
    augment reads its original pairs from."""
    root = tmp_path_factory.mktemp("kill")
    (root / "corpus.json").write_text(serialize_index(wide_corpus(DECLARATIONS)),
                                      encoding="utf-8")
    (root / "bench.jsonl").write_text(
        "".join(json.dumps({"id": f"b{i}", "informal_text": f"p {i} holds."}) + "\n"
                for i in range(BENCH_ITEMS)),
        encoding="utf-8",
    )
    (root / "config.json").write_text(
        json.dumps({"knobs": {"pass_k": 4, "backend": {"kind": "mock", "default_ok": True}}}),
        encoding="utf-8",
    )
    return root


def stage_argv(inputs: Path, stage: str, out: Path) -> list[str]:
    args = {
        "informalize": ["informalize", "--index", str(inputs / "corpus.json")],
        "augment": ["augment", "--index", str(inputs / "corpus.json"), "--tactic",
                    "--informal", "--pairs", str(inputs / "pairs")],
        "validate": ["validate", "--bench", str(inputs / "bench.jsonl")],
    }[stage]
    return [sys.executable, "-m", "herald.cli", "--config", str(inputs / "config.json"),
            "--out", str(out), *args]


def environment() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_to_end(argv: list[str]) -> None:
    result = subprocess.run(argv, env=environment(), capture_output=True, text=True,
                            timeout=TIMEOUT_S)
    assert result.returncode == 0, result.stderr


def run_and_kill(argv: list[str], after_s: float) -> None:
    with subprocess.Popen(argv, env=environment(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL) as proc:
        try:
            proc.wait(after_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(TIMEOUT_S)


@pytest.mark.parametrize("stage", ["informalize", "augment", "validate"])
def test_a_killed_stage_reruns_to_the_clean_tree(inputs, tmp_path, stage):
    if stage == "augment" and not (inputs / "pairs").exists():
        run_to_end(stage_argv(inputs, "informalize", inputs / "pairs"))
    clean = tmp_path / "clean"
    start = time.perf_counter()
    run_to_end(stage_argv(inputs, stage, clean))
    clean_s = time.perf_counter() - start
    expected = tree_digest(clean)
    rng = random.Random(f"kill-{stage}")
    for i in range(KILLS):
        out = tmp_path / f"killed{i}"
        argv = stage_argv(inputs, stage, out)
        run_and_kill(argv, clean_s * (i + 1 + rng.uniform(-0.5, 0.5)) / (KILLS + 1))
        run_to_end(argv)
        assert tree_digest(out) == expected, f"killed at instant {i}"
