"""A stage killed at any instant reruns to the tree a clean run writes.

Each stage runs as its own ``python -m herald.cli`` process with the mock
roles, on inputs that take about a second.  Fresh runs are killed at three
points, near a quarter, a half and three quarters of a clean run, and each
is rerun to completion.  The points are either seeded instants of the clean
run's time, or its mock roles' n-th answer: the child process counts the
answers of the mock role classes and sends itself SIGKILL inside answer n,
which is free of timing.  Every file of the rerun's tree, the completion
log included, must equal the clean tree's.
"""

from __future__ import annotations

import json
import os
import random
import signal
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


# ``python -c`` with the kill point and the CLI arguments: ``herald.cli`` whose
# mock roles count their answers, print the count at exit and, when the kill
# point n is not 0, SIGKILL the process inside answer n.
KILL_AT_ANSWER = """
import os, signal, sys, threading
from herald import cli, gateway

kill_at, answers, lock = int(sys.argv[1]), [0], threading.Lock()

def counted(generate):
    def answer(self, request, sample_index):
        with lock:
            answers[0] += 1
            if answers[0] == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
        return generate(self, request, sample_index)
    return answer

for role in (gateway.MockInformalizer, gateway.MockChatProvider, gateway.MockBackTranslator,
             gateway.MockNliJudge, gateway.MockAugmenter):
    role.generate = counted(role.generate)
code = cli.main(sys.argv[2:])
print(answers[0])
sys.exit(code)
"""


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


def at_answer(argv: list[str], kill_at: int) -> list[str]:
    """``argv`` (a ``python -m herald.cli`` command) killed at answer ``kill_at``."""
    return [sys.executable, "-c", KILL_AT_ANSWER, str(kill_at), *argv[3:]]


@pytest.mark.parametrize("stage", ["informalize", "validate"])
def test_a_stage_killed_at_the_nth_answer_reruns_to_the_clean_tree(inputs, tmp_path, stage):
    clean = tmp_path / "clean"
    result = subprocess.run(at_answer(stage_argv(inputs, stage, clean), 0), env=environment(),
                            capture_output=True, text=True, timeout=TIMEOUT_S)
    assert result.returncode == 0, result.stderr
    answers = int(result.stdout.split()[-1])
    expected = tree_digest(clean)
    for quarter in range(1, KILLS + 1):
        out = tmp_path / f"killed{quarter}"
        argv = stage_argv(inputs, stage, out)
        killed = subprocess.run(at_answer(argv, answers * quarter // (KILLS + 1)),
                                env=environment(), capture_output=True, timeout=TIMEOUT_S)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        run_to_end(argv)
        assert tree_digest(out) == expected, f"killed at answer {quarter}/4 of {answers}"


# ``python -c`` with the kill point and the CLI arguments: ``herald.cli`` whose
# record files count the lines appended to them, print the count at exit and,
# when the kill point n is not 0, write and flush half of line n, then SIGKILL
# the process.
KILL_AT_LINE = """
import os, signal, sys
from herald import cli, pipeline

kill_at, lines = int(sys.argv[1]), [0]

class Tearing:
    def __init__(self, handle):
        self._handle = handle

    def write(self, line):
        lines[0] += 1
        if lines[0] == kill_at:
            self._handle.write(line[:len(line) // 2])
            self._handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return self._handle.write(line)

    def __getattr__(self, name):
        return getattr(self._handle, name)

pipeline.open = lambda *args, **kwargs: Tearing(open(*args, **kwargs))
code = cli.main(sys.argv[2:])
print(lines[0])
sys.exit(code)
"""


@pytest.mark.parametrize("stage", ["informalize", "validate"])
def test_a_stage_killed_inside_its_nth_record_line_reruns_to_the_clean_tree(
        inputs, tmp_path, stage):
    clean = tmp_path / "clean"
    script = [sys.executable, "-c", KILL_AT_LINE]
    result = subprocess.run([*script, "0", *stage_argv(inputs, stage, clean)[3:]],
                            env=environment(), capture_output=True, text=True, timeout=TIMEOUT_S)
    assert result.returncode == 0, result.stderr
    lines = int(result.stdout.split()[-1])
    expected = tree_digest(clean)
    for quarter in range(1, KILLS + 1):
        out = tmp_path / f"killed{quarter}"
        argv = stage_argv(inputs, stage, out)
        killed = subprocess.run([*script, str(lines * quarter // (KILLS + 1)), *argv[3:]],
                                env=environment(), capture_output=True, timeout=TIMEOUT_S)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert any(not path.read_bytes().endswith(b"\n")
                   for path in out.glob("*.jsonl")), f"no torn line under {out}"
        run_to_end(argv)
        assert tree_digest(out) == expected, f"killed in line {quarter}/4 of {lines}"
