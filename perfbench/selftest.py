"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

For every workload, untraced and traced, runs ``run.py --size toy`` and
checks that it exits 0, reports a correct run and emits every metric
``BENCHMARK.json`` names, with its unit.  Metrics the benchmark computes but
leaves out of the result line are accounted for: ``fail_ratio`` in
``DROPPED``, and layer times that a traced run only prints must each read 0
on some workload.  Then checks that the benchmark fails without printing a
result in a directory that holds only ``BENCHMARK.json`` and the
benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench_work" / "selftest-bare"

DROPPED = {
    "fail_ratio": "reads 0 on every correct run, and an end-to-end metric must never be 0; "
                  "the result line carries it as failed/attempted and run.py prints it "
                  "as a comment line",
}
PRINTED_ONLY = ("a layer time that reads 0 on every run of a workload that never reaches "
                "the layer; a time that never changes would be taken for a made-up value")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    in_result = {m["name"] for m in bench["per_layer"]}
    printed: dict[str, list[float]] = {}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {lines[-1][:200]}")
            got = result["metrics"]
            for m in wanted:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif entry["unit"] != m["unit"] or not isinstance(entry["value"], (int, float)):
                    problems.append(f"{label}: metric {m['name']} is {entry}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if not any(line.startswith("# fail_ratio") for line in lines):
                problems.append(f"{label}: fail_ratio line missing")
            if trace:
                for line in lines:
                    parts = line.split()
                    if len(parts) >= 4 and parts[1] not in in_result and "." in parts[1]:
                        printed.setdefault(parts[1], []).append(float(parts[2]))
            print(f"ok {label}: {len(got)} metrics, {result['attempted']} records checked")

    # Without herald's sources the benchmark must fail and print no result.
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, BARE / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(BARE, bench["workloads"][0]["name"], 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        problems.append(f"bare directory: exit {proc.returncode}, last line {last[0]!r}")
    else:
        print(f"ok bare directory: exit {proc.returncode}, no result")
    shutil.rmtree(BARE)

    for name, values in sorted(printed.items()):
        if spans.unit_of(name) not in ("s", "ms", "us") or 0.0 not in values:
            problems.append(f"{name} is left out of the result line without reason")
    for name, reason in DROPPED.items():
        print(f"dropped {name}: {reason}")
    print(f"printed only ({len(printed)}): {PRINTED_ONLY}: {', '.join(sorted(printed))}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
