"""Operator entry point wiring the pipeline stages into subcommands.

Exit codes: 0 success; 2 malformed input or configuration (schema errors,
bad flags, an input path that is missing or a directory); 3 provider
exhaustion or spent request budget (rerun the same command to resume); 4
backend or pipeline failures (compiler backend down, a provider or REPL reply
of the wrong shape, dependency cycles, I/O).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from . import datastore as ds
from .config import PipelineConfig, load_config, parse_ratio
from .validate import summary_table
from .errors import (
    BudgetExceeded,
    HeraldError,
    InvalidInput,
    ProviderExhausted,
    SchemaError,
)

logger = logging.getLogger("herald")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PROVIDER = 3
EXIT_PIPELINE = 4

RESUME_HINT = (
    "records already written and completions already paid for (the cache) "
    "stay in the output directory; rerun the same command to resume"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herald",
        description="Build NL-FL parallel datasets from a Lean corpus export.",
        epilog=(
            "exit codes: 0 ok; 2 schema/config error; "
            "3 provider/budget exhausted (rerun to resume); 4 pipeline/backend error"
        ),
    )
    parser.add_argument("--config", type=Path, help="pipeline config JSON")
    parser.add_argument("--out", type=Path, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int,
                        help="sets both dedup_seed and mix_seed (overrides config)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a corpus export or scan Lean sources")
    source = p.add_mutually_exclusive_group()  # one corpus source
    source.add_argument("--export", type=Path, help="corpus export JSON")
    source.add_argument("--from-source", type=Path, help="directory of .lean files to scan")

    p = sub.add_parser("stratify", help="build the dependency DAG and level schedule")
    p.add_argument("--index", type=Path, required=True, help="index.json from ingest")
    p.add_argument("--emit-dot", type=Path, help="also write a DOT graph dump")

    p = sub.add_parser("informalize", help="dependency-ordered statement and proof translation")
    p.add_argument("--index", type=Path, required=True)
    p.add_argument("--dry-run", action="store_true", help="write first-wave prompts, call no model")
    p.add_argument("--budget", type=int, help="abort after this many provider calls")

    p = sub.add_parser("augment", help="tactic-state synthesis and informal variants")
    p.add_argument("--index", type=Path, required=True)
    p.add_argument("--tactic", action="store_true", help="synthesize from proof states")
    p.add_argument("--informal", action="store_true", help="generate informal variants")
    p.add_argument("--pairs", type=Path, help="informalize output dir (for --informal)")
    p.add_argument("--dedup-seed", type=int, help="sampling seed (overrides config)")

    p = sub.add_parser("mix", help="assemble a training mixture at the configured ratios")
    p.add_argument("--original", type=Path, required=True, help="original pairs JSONL or informalize dir")
    p.add_argument("--tactic-aug", type=Path, required=True)
    p.add_argument("--informal-aug", type=Path, required=True)
    p.add_argument("--general", type=Path, help="general-domain JSONL (overrides config)")
    p.add_argument("--total", type=int, required=True, help="total records to emit")
    p.add_argument("--ratio", help="provenance ratio a:b:c (default 1:2:1)")
    p.add_argument("--dirmix", help="direction ratio x:y:z (default 2:2:1)")

    p = sub.add_parser("validate", help="pass@k validation of a formalization benchmark")
    p.add_argument("--bench", type=Path, required=True, help="JSONL of {id, informal_text, header?}")
    p.add_argument("--k", type=int, help="candidates per item (overrides config pass_k)")
    p.add_argument("--name", help="dataset name for the summary")

    p = sub.add_parser("stats", help="dataset statistics table")
    p.add_argument("--data", type=Path, required=True, help="dataset JSONL")
    return parser


def _load_pairs_arg(path: Path) -> list[ds.NLFLPair]:
    if path.is_dir():
        return pipeline.load_statement_pairs(path)
    return ds.read_pairs(path)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = load_config(args.config) if args.config else PipelineConfig()
        flag = vars(args).get  # a subcommand's flag, or None
        dedup_seed = flag("dedup_seed")
        flags = {"dedup_seed": args.seed if dedup_seed is None else dedup_seed,  # wins over --seed
                 "mix_seed": args.seed, "request_budget": flag("budget"), "pass_k": flag("k"),
                 **{key: parse_ratio(flag(key), f"--{key}") for key in ("ratio", "dirmix")
                    if flag(key) is not None}}
        # replace() checks the config with the flags set, before any stage writes.
        config = replace(config, **{key: value for key, value in flags.items() if value is not None})
        out_dir = args.out or config.output_dir

        if args.command == "ingest":
            if args.export or args.from_source:  # the flag replaces the config's source
                config.corpus_export, config.source_dir = args.export, args.from_source
            index = pipeline.run_ingest(config, out_dir)
            print(f"ingested {len(index.declarations)} declarations, "
                  f"{len(index.proofs)} proofs -> {out_dir / 'index.json'}")

        elif args.command == "stratify":
            index = pipeline.load_index(args.index)
            assignment = pipeline.run_stratify(index, config, out_dir, emit_dot=args.emit_dot)
            print(f"stratified {len(assignment.level_of)} declarations into "
                  f"{len(assignment.levels)} levels -> {out_dir / 'levels.json'}")

        elif args.command == "informalize":
            index = pipeline.load_index(args.index)
            counts = pipeline.run_informalize(index, config, out_dir, dry_run=args.dry_run)
            print(f"informalize: {counts}")

        elif args.command == "augment":
            index = pipeline.load_index(args.index)
            do_tactic = args.tactic or not args.informal
            original_pairs = _load_pairs_arg(args.pairs) if args.pairs else None
            counts = pipeline.run_augment(
                index,
                config,
                out_dir,
                tactic=do_tactic,
                informal=args.informal,
                original_pairs=original_pairs,
            )
            print(f"augment: {counts}")

        elif args.command == "mix":
            if args.general:
                config.general_data = args.general
            if config.general_data is None:
                raise InvalidInput("mix needs --general or paths.general_data in config")
            manifest = pipeline.run_mix(
                _load_pairs_arg(args.original),
                ds.read_pairs(args.tactic_aug),
                ds.read_pairs(args.informal_aug),
                pipeline.load_general_pairs(config.general_data),
                config,
                out_dir,
                total=args.total,
            )
            print(f"mixed {manifest.total} records "
                  f"(counts={manifest.counts}, directions={manifest.direction_counts})")

        elif args.command == "validate":
            summary = pipeline.run_validate(args.bench, config, out_dir, dataset_name=args.name)
            print(summary_table(summary))

        elif args.command == "stats":
            result = ds.stats(args.data)
            (out_dir / "stats.json").parent.mkdir(parents=True, exist_ok=True)
            (out_dir / "stats.json").write_text(
                ds.stats_to_json(result) + "\n", encoding="utf-8"
            )
            print(ds.stats_table(result), end="")

        return EXIT_OK

    except (SchemaError, InvalidInput, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (ProviderExhausted, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: {RESUME_HINT}", file=sys.stderr)
        return EXIT_PROVIDER
    except HeraldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except KeyboardInterrupt:
        print(f"interrupted; {RESUME_HINT}", file=sys.stderr)
        return EXIT_PROVIDER


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
