"""herald pipeline benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload corpus-build --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` (outside every metric), then
repeats the workload, each repetition in a fresh worker process writing a
fresh output tree, until the next repetition would pass ``--seconds``.  After
each repetition it checks the output tree against the generator's reference
and its digest against every other repetition of this code and seed.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (expected output records checked and those
missing or wrong) and ``metrics``, the medians over repetitions of the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the traced
repetitions (``--trace 1``), with names and units from ``BENCHMARK.json``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SPENT = WORK / "spent"
# Every process this run starts must be gone within this many seconds.
RUN_LIMIT_S = 150
# Never above the number of usable processors.
MAX_IN_FLIGHT = min(2, len(os.sched_getaffinity(0)))


def src_fingerprint() -> tuple[str, int]:
    """Hash of herald's sources, and their line count."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src" / "herald").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    return h.hexdigest(), lines


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def retire(tree: Path) -> None:
    """Empty a finished output tree and park it under ``SPENT``.

    On ext4 without a journal, unlinking thousands of small files slows the
    next file creations for about two minutes (the allocator skips recently
    deleted inodes), which would charge one repetition's cleanup to the
    next one's timings.  Truncating frees the data blocks but no inodes.
    """
    if not tree.exists():
        return
    for path in tree.rglob("*"):
        if path.is_file():
            os.truncate(path, 0)
    SPENT.mkdir(parents=True, exist_ok=True)
    tree.rename(SPENT / f"{tree.name}-{time.time_ns()}")


def _jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def check_outputs(workload: str, ref: dict, out: Path, provider_calls: int) -> list[bool]:
    """One entry per expected record: True when present and equal to the reference."""
    checks = []
    if workload in ("corpus-build", "informalize-latency"):
        inf = out / "informalize"
        levels = {r["id"]: r["level"] for p in sorted(inf.glob("statements_level_*.jsonl"))
                  for r in _jsonl(p)}
        checks += [levels.get(name) == level for name, level in ref["levels"].items()]
        proofs = {r["id"] for r in _jsonl(inf / "proofs.jsonl")}
        checks += [f"{name}::proof" in proofs for name in ref["proofs"]]
    if workload == "corpus-build":
        aug = out / "augment"
        checks.append(len(_jsonl(aug / "synthesized.jsonl")) == ref["synthesized"])
        checks.append(len(_jsonl(aug / "tactic_aug.jsonl")) == ref["tactic_aug"])
        checks.append(len(_jsonl(aug / "informal_aug.jsonl")) == ref["informal_aug"])
        manifest = _json(out / "mix" / "mix_manifest.json")
        mix = ref["mix"]
        checks += [manifest.get("counts", {}).get(k) == v for k, v in mix["counts"].items()]
        checks += [manifest.get("direction_counts", {}).get(k) == v
                   for k, v in mix["direction_counts"].items()]
        checks.append(manifest.get("total") == mix["total"]
                      and manifest.get("scaled_down") is False)
        stats = _json(out / "stats" / "stats.json")
        checks.append(stats.get("total") == mix["total"])
    if workload == "validate-resume":
        val = out / "validate"
        success = {r["item_id"]: r["success"] for r in _jsonl(val / "reports.jsonl")}
        checks += [success.get(item) == ok for item, ok in ref["success"].items()]
        checks.append(_json(val / "summary.json").get("succeeded") == ref["succeeded"])
        # The rerun pays only for what the budgeted run did not cache.
        checks.append(provider_calls == ref["cold_calls"] - ref["budget"])
    return checks


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / f"spec-{spec['mode']}.json"
    result_path = work / "result.json"
    spec["result"] = str(result_path)
    result_path.unlink(missing_ok=True)
    spec["launch"] = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
    # The budgeted validate run is expected to stop with exit code 3.
    if proc.returncode != 0 or result.get("exit_code", 3) != 3:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({spec['mode']}) exited with {proc.returncode}, "
                           f"result {result}")
    return result


def one_repetition(spec: dict, ref: dict, work: Path, trace: bool, out: Path,
                   deadline: float) -> dict:
    spec = dict(spec, out=str(out))
    try:
        if spec["workload"] == "validate-resume":
            # Untimed, so the REPL stub answers without its delay.
            run_worker(dict(spec, mode="prepare", repl_ms=0), work, deadline)
        result = run_worker(dict(spec, mode="run", trace=trace), work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"# repetition failed: {exc}", file=sys.stderr)
        result = {"provider_calls": -1}
    checks = check_outputs(spec["workload"], ref, out, result["provider_calls"])
    result["attempted"] = len(checks)
    result["failed"] = checks.count(False)
    result["digest"] = tree_digest(out)
    result["traced"] = trace
    return result


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input size; 'toy' is for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "herald" / "pipeline.py").is_file():
        print(f"error: herald sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    # Only the latest run's inputs and spans are kept, beside the digests
    # and the emptied trees.
    for old in WORK.glob("*"):
        if old.is_dir() and old != SPENT:
            shutil.rmtree(old)
    work = WORK / f"{args.workload}-{args.size}-s{args.seed}"
    ref = gen.generate(args.workload, args.seed, args.size, work / "inputs")
    params = ref["params"]
    src_hash, src_lines = src_fingerprint()
    spec = {
        "root": str(ROOT), "workload": args.workload, "work": str(work),
        "inputs": str(work / "inputs"),
        "max_in_flight": MAX_IN_FLIGHT, "latency_ms": params.get("latency_ms", 0),
        "mix_total": params.get("mix_total"), "k": params.get("k"),
        "repl_ms": params.get("repl_ms", 0),
    }
    if args.workload == "validate-resume":
        ref["budget"] = spec["budget"] = ref["cold_calls"] // 2
    meta = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "params": params, "max_in_flight": MAX_IN_FLIGHT,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "src_lines": src_lines, "src_sha256": src_hash[:16],
        "output_tree": str(WORK.relative_to(ROOT)),
        "load": "closed loop, one client (the pipeline), no arrival schedule",
    }
    print("# meta " + json.dumps(meta, sort_keys=True))

    # Repeat until the next repetition would end past --seconds.  A traced
    # run alternates untraced and traced repetitions: the untraced ones give
    # the base of trace.overhead_ratio.
    start = time.monotonic()
    reps: list[dict] = []
    durations: list[float] = []
    needed = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        if len(reps) >= needed and (time.monotonic() - start
                                    + statistics.median(durations) > args.seconds):
            break
        t = time.monotonic()
        reps.append(one_repetition(spec, ref, work, traced, work / f"out{len(reps)}",
                                   start + RUN_LIMIT_S))
        durations.append(time.monotonic() - t)
        retire(work / f"out{len(reps) - 1}")
        if reps[-1]["failed"]:
            break

    # Every repetition of this code and seed, in this run or an earlier
    # one, must leave the same tree.
    digests = {r["digest"] for r in reps}
    digest_file = WORK / "digests.json"
    known = _json(digest_file)
    key = f"{args.workload}|{json.dumps(params, sort_keys=True)}|{args.seed}|{src_hash}"
    if key in known:
        digests.add(known[key])
    failed = sum(r["failed"] for r in reps) + (len(digests) - 1)
    if not failed:
        known[key] = reps[0]["digest"]
        digest_file.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    attempted = sum(r["attempted"] for r in reps)
    correct = failed == 0
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    print(f"# {len(reps)} repetitions ({len(traced_reps)} traced) in "
          f"{time.monotonic() - start:.1f} s; output tree digest "
          f"{'stable' if len(digests) == 1 else 'MISMATCH'}")

    for r in reps:
        if "wall_s" in r:
            print(f"# repetition{' (traced)' if r['traced'] else ''}: wall_s={r['wall_s']:.4f} "
                  f"cpu_s={r['cpu_s']:.4f} sys_s={r['sys_s']:.4f} setup_s={r['setup_s']:.4f}")
    metrics = {}
    if correct:
        if args.trace:
            values = {name: [r["layers"][name] for r in traced_reps]
                      for name in traced_reps[0]["layers"]}
            values["trace.overhead_ratio"] = [statistics.median(r["wall_s"] for r in traced_reps)
                                              / statistics.median(r["wall_s"] for r in plain)]
            units = {name: spans.unit_of(name) for name in values}
        else:
            values = {m["name"]: [r[m["name"]] for r in plain] for m in wanted}
            units = {}
        units.update((m["name"], m["unit"]) for m in wanted)
        # The result line carries the metrics BENCHMARK.json names; a traced
        # run prints every layer metric (see README.md for those it omits).
        for name, vals in values.items():
            value = statistics.median(vals)
            print(f"# {name:<32} {value:>14.6g} {units[name]:<6} {summary(vals)}")
        metrics = {m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
                   for m in wanted}
    print(f"# {'fail_ratio':<32} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} expected records missing or wrong)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
