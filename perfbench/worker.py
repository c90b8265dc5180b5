"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition with a JSON spec and reads
the result file it writes.  ``setup_s`` runs from the launch stamp the parent
took just before starting this process (``time.monotonic`` is system-wide on
Linux) to the first stage call; ``wall_s`` and ``cpu_s`` cover the first
stage call to the return of the last.

Run: ``python3 perfbench/worker.py SPEC.json``
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _cpu() -> tuple[float, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime


def _track_repl_backends() -> list:
    """Every ReplBackend built from now on, so the run can close it."""
    from herald.validate import ReplBackend

    built = []
    init = ReplBackend.__init__

    def register(backend, *args, **kwargs):
        init(backend, *args, **kwargs)
        built.append(backend)

    ReplBackend.__init__ = register
    return built


def _repl_command(spec: dict) -> list[str]:
    stub = Path(spec["root"]) / "perfbench" / "repl_stub.py"
    return [sys.executable, str(stub), "--delay-ms", str(spec["repl_ms"])]


def _prepare_validate(spec: dict, inputs: Path, out: Path) -> int:
    """The CLI's validate command with a request budget; returns its exit code."""
    from herald import cli

    config = {"knobs": {"request_budget": spec["budget"],
                        "max_in_flight": spec["max_in_flight"],
                        "backend": {"kind": "repl", "command": _repl_command(spec)}}}
    config_path = Path(spec["work"]) / "prepare_config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return cli.main(["--config", str(config_path), "--out", str(out / "validate"),
                     "validate", "--bench", str(inputs / "bench.jsonl"), "--k", str(spec["k"])])


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))

    from herald import datastore as ds
    from herald import pipeline
    from herald.config import ROLE_NAMES, BackendConfig, PipelineConfig

    from latency import LatencyRoleConfig, ProviderMeter

    workload = spec["workload"]
    inputs = Path(spec["inputs"])
    out = Path(spec["out"])
    backends = _track_repl_backends()
    result: dict = {}
    try:
        if spec["mode"] == "prepare":
            result["exit_code"] = _prepare_validate(spec, inputs, out)
            return

        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        meter = ProviderMeter(tracer)
        role = LatencyRoleConfig(latency_ms=spec["latency_ms"], meter=meter)
        config = PipelineConfig(
            roles={name: role for name in ROLE_NAMES},
            max_in_flight=spec["max_in_flight"],
        )
        if workload == "validate-resume":
            config.backend = BackendConfig(kind="repl", command=tuple(_repl_command(spec)))
        else:
            config.corpus_export = inputs / "export.json"
            index = pipeline.load_index(config.corpus_export)
        if workload == "corpus-build":
            config.example_store = inputs / "store"
            config.general_data = inputs / "general.jsonl"

        def stage(name: str):
            return tracer.stage(name) if tracer is not None else nullcontext()

        t0 = time.monotonic()
        cpu0 = _cpu()
        if workload == "corpus-build":
            with stage("ingest"):
                pipeline.run_ingest(config, out / "ingest")
            with stage("stratify"):
                pipeline.run_stratify(index, config, out / "stratify")
            with stage("informalize"):
                pipeline.run_informalize(index, config, out / "informalize")
            with stage("augment"):
                pairs = pipeline.load_statement_pairs(out / "informalize")
                pipeline.run_augment(index, config, out / "augment", tactic=True,
                                     informal=True, original_pairs=pairs)
            with stage("mix"):
                pipeline.run_mix(pairs,
                                 ds.read_pairs(out / "augment" / "tactic_aug.jsonl"),
                                 ds.read_pairs(out / "augment" / "informal_aug.jsonl"),
                                 pipeline.load_general_pairs(config.general_data),
                                 config, out / "mix", total=spec["mix_total"])
            with stage("stats"):
                stats = ds.stats(out / "mix" / "dataset.jsonl")
                (out / "stats").mkdir(parents=True)
                (out / "stats" / "stats.json").write_text(ds.stats_to_json(stats) + "\n",
                                                          encoding="utf-8")
        elif workload == "informalize-latency":
            with stage("informalize"):
                pipeline.run_informalize(index, config, out / "informalize")
        else:
            with stage("validate"):
                pipeline.run_validate(inputs / "bench.jsonl", config, out / "validate",
                                      k=spec["k"])
        t1 = time.monotonic()
        cpu1 = _cpu()

        wall_s = t1 - t0
        sys_s = cpu1[1] - cpu0[1]
        result.update({
            "setup_s": t0 - spec["launch"],
            "wall_s": wall_s,
            "cpu_s": (cpu1[0] - cpu0[0]) + sys_s,
            "sys_s": sys_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "provider_calls": meter.calls,
        })
        if tracer is not None:
            result["layers"] = spans.layer_metrics(
                tracer, wall_s=wall_s, sys_s=sys_s, latency_s=spec["latency_ms"] / 1000.0,
                max_in_flight=spec["max_in_flight"], out_dir=out)
            tracer.dump(Path(spec["work"]) / "spans.jsonl")
    finally:
        for backend in backends:
            backend.close()
        Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
