"""Stage orchestration behind the CLI subcommands.

Every stage writes its artifacts under the configured output directory plus
a manifest carrying the config digest and the seeds actually used, so a
finished tree is reproducible and tamper-evident on resume.  Nothing here
embeds timestamps or absolute paths: with mock roles, identical inputs and
seeds yield byte-identical trees.
"""

from __future__ import annotations

import json
import logging
import queue
from concurrent import futures
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Container, Hashable, Sequence, TextIO

from . import augment as aug
from . import datastore as ds
from . import depgraph, ingest, prompts, retrieval, validate
from .config import PipelineConfig
from .errors import BlankAnswer, InvalidInput, SchemaError
from .gateway import Completion, Gateway
from .records import CorpusIndex

logger = logging.getLogger(__name__)


def write_manifest(out_dir: Path, command: str, config: PipelineConfig, extra: dict) -> None:
    payload = {
        "command": command,
        "config_digest": config.config_digest,
        "seeds": {
            "dedup_seed": config.dedup_seed,
            "mix_seed": config.mix_seed,
        },
    }
    payload.update(extra)
    (out_dir / f"{command}_run_manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _log_counters(stage: str, stats: dict[str, int]) -> None:
    logger.info("%s: %s", stage, ", ".join(f"{name} {count}" for name, count in stats.items()))


def _claim(out_dir: Path, config: PipelineConfig, write: bool = True) -> None:
    """Bind ``out_dir`` to ``config``: the first claim writes
    ``config_digest.txt`` (if ``write``), and a run under another digest is
    refused with :class:`InvalidInput` (exit 2), so a stage never resumes
    into records kept from another config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    digest_file = out_dir / "config_digest.txt"
    if digest_file.exists():
        previous = digest_file.read_text(encoding="utf-8").strip()
        if previous != config.config_digest:
            raise InvalidInput(
                f"{out_dir} was produced with config digest {previous[:12]}, "
                f"current config is {config.config_digest[:12]}; refusing to resume"
            )
    elif write:
        digest_file.write_text(config.config_digest + "\n", encoding="utf-8")


def _close_stage(
    stage: str, gateway: Gateway, backend: validate.CompilerBackend | None = None
) -> None:
    """Close the stage's gateway, then its compiler backend even if that
    raised; log the gateway's counters, and a cached backend's, at INFO.

    The counters stay out of the manifests: how many samples a resumed run
    takes from the cache depends on where the earlier run stopped.
    """
    try:
        gateway.close()
        _log_counters(stage, gateway.stats)
    finally:
        if backend is not None:
            backend.close()
            if isinstance(backend, validate.CachedChecks):
                _log_counters(stage, backend.stats)


def _answer_text(completion: Completion, subject: str) -> str:
    """The completion's text, stripped; a blank answer raises :class:`BlankAnswer`.

    The gateway never caches a blank answer, so the rerun that exit 3 asks
    for sends the request again.
    """
    text = completion.text.strip()
    if not text:
        raise BlankAnswer(f"blank answer for {subject}")
    return text


def level_files(directory: Path) -> list[Path]:
    """statements_level_*.jsonl in numeric level order."""
    return sorted(
        Path(directory).glob("statements_level_*.jsonl"),
        key=lambda p: int(p.stem.rsplit("_", 1)[1]),
    )


def load_index(path: Path) -> CorpusIndex:
    return ingest.parse_jixia_export(Path(path).read_bytes())


# --- ingest ----------------------------------------------------------------


def run_ingest(config: PipelineConfig, out_dir: Path) -> CorpusIndex:
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.corpus_export is not None:
        index = load_index(config.corpus_export)
    elif config.source_dir is not None:
        index = ingest_source_tree(config.source_dir)
    else:
        raise InvalidInput("ingest needs either a corpus export or a source directory")
    (out_dir / "index.json").write_text(ingest.serialize_index(index), encoding="utf-8")
    for warning in index.warnings:
        logger.warning("%s", warning)
    write_manifest(
        out_dir,
        "ingest",
        config,
        {
            "declarations": len(index.declarations),
            "proofs": len(index.proofs),
            "warnings": len(index.warnings),
        },
    )
    return index


def ingest_source_tree(source_dir: Path) -> CorpusIndex:
    """Scan every .lean file under ``source_dir`` (fixture-scale fallback)."""
    declarations = {}
    head_statements = {}
    diagnostics = []
    for path in sorted(Path(source_dir).rglob("*.lean")):
        rel = path.relative_to(source_dir).as_posix()
        result = ingest.scan_declarations(path.read_text(encoding="utf-8"), file_path=rel)
        diagnostics.extend(f"{rel}: {d}" for d in result.diagnostics)
        if result.head_statement:
            head_statements[rel] = result.head_statement
        for rec in result.records:
            if rec.full_name in declarations:
                diagnostics.append(f"{rel}: duplicate name {rec.full_name}, keeping first")
                continue
            declarations[rec.full_name] = rec
    for diag in diagnostics:
        logger.warning("scan: %s", diag)
    return CorpusIndex(declarations=declarations, head_statements=head_statements)


# --- stratify ---------------------------------------------------------------


def run_stratify(
    index: CorpusIndex, config: PipelineConfig, out_dir: Path, emit_dot: Path | None = None
) -> depgraph.LevelAssignment:
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = depgraph.build_graph(index)
    assignment = depgraph.stratify(graph)
    doc = {
        "level_of": {n: assignment.level_of[n] for n in sorted(assignment.level_of)},
        "levels": [list(level) for level in assignment.levels],
        "unresolved_dependencies": graph.unresolved_count,
    }
    (out_dir / "levels.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if emit_dot is not None:
        emit_dot.write_text(depgraph.to_dot(graph), encoding="utf-8")
    write_manifest(
        out_dir,
        "stratify",
        config,
        {"nodes": len(graph.nodes), "edges": len(graph.edges), "levels": len(assignment.levels)},
    )
    return assignment


# --- informalize -------------------------------------------------------------


class _OrderedDispatch:
    """Gateway futures in; records appended to their JSONL files in canonical order.

    ``order`` lists every record key in canonical order and ``on_disk`` holds
    the keys an earlier run already wrote.  The stage sends requests with
    :meth:`submit` and hands finished records to :meth:`finish`.  :meth:`run`
    feeds each completion to ``settle(tag, completion)`` on the calling
    thread as it returns, and appends a record only once every earlier one
    is on disk, so the files do not depend on ``max_in_flight`` and an
    interrupted run leaves a canonical prefix.  Each file is opened once, and
    each line flushed as it is written, in canonical order.

    On the first error, ``stopping`` turns true (``settle`` must then send
    nothing more), queued requests are cancelled, running ones are drained
    and settled, the prefix is flushed and the error is re-raised.
    """

    def __init__(self, order: Sequence[Hashable], on_disk: Container[Hashable]):
        self.stopping = False
        self._order = order
        self._on_disk = on_disk
        self._cursor = 0
        self._finished: dict[Hashable, tuple[Path, str]] = {}
        self._handles: dict[Path, TextIO] = {}
        self._pending: dict[futures.Future, object] = {}
        self._completed: queue.SimpleQueue = queue.SimpleQueue()

    def submit(self, future: futures.Future, tag: object) -> None:
        self._pending[future] = tag
        future.add_done_callback(self._completed.put)

    def finish(self, key: Hashable, path: Path, line: str) -> None:
        self._finished[key] = (path, line)

    def _flush(self) -> None:
        while self._cursor < len(self._order):
            key = self._order[self._cursor]
            if key in self._finished:
                path, line = self._finished.pop(key)
                handle = self._handles.get(path)
                if handle is None:
                    handle = self._handles[path] = open(path, "a", encoding="utf-8")
                handle.write(line)
                handle.flush()
            elif key not in self._on_disk:
                return
            self._cursor += 1

    def run(self, start: Callable[[], None], settle: Callable[[object, Completion], None]) -> None:
        """``start()`` sends the first requests; returns once none is pending."""
        try:
            start()
            self._flush()
            while self._pending:
                future = self._completed.get()
                settle(self._pending.pop(future), future.result())
                self._flush()
        except BaseException:
            # Keep every finished record that extends the canonical prefix,
            # then let the caller see the first error.
            self.stopping = True
            for future in self._pending:
                future.cancel()
            futures.wait(self._pending)
            for future, tag in self._pending.items():
                if not future.cancelled() and future.exception() is None:
                    settle(tag, future.result())
            self._flush()
            raise
        finally:
            for handle in self._handles.values():
                handle.close()


def _existing_pair_ids(out_dir: Path) -> dict[str, ds.NLFLPair]:
    """Pairs already on disk from an interrupted run, keyed by id; a torn
    final line is dropped first."""
    for path in _pair_files(out_dir):
        ds.drop_torn_tail(path)
    return {pair.id: pair for pair in load_statement_pairs(out_dir)}


def _load_registry(config: PipelineConfig) -> prompts.TemplateRegistry:
    if config.template_registry is not None:
        return prompts.TemplateRegistry.from_path(config.template_registry)
    return prompts.default_registry()


def _retrieval_context(config: PipelineConfig):
    if config.example_store is None:
        return None, None
    store = retrieval.load_store(config.example_store)
    if store.count == 0 or store.dim is None:
        return None, None
    provider = retrieval.HashEmbeddingProvider(dim=store.dim)
    return store, provider


def run_informalize(
    index: CorpusIndex,
    config: PipelineConfig,
    out_dir: Path,
    dry_run: bool = False,
) -> dict[str, int]:
    """Statement and stepwise proof translation in dependency order.

    Dispatch: a statement is sent as soon as each of its prerequisites has a
    translation (Kahn's ready set over the dependency graph).  Its prompt
    reads only those translations, so every prompt is the one a
    level-by-level pass would build.  A proof's step prompts are sent once
    its statement translation lands, and its summary once every step is
    back.  All provider calls go through the gateway pool, so
    ``max_in_flight`` is the one concurrency knob.

    Reorder buffer (:class:`_OrderedDispatch`): records are written in
    canonical order (statements level by level, then proofs by name), so the
    output tree does not depend on ``max_in_flight`` and an interrupted run
    leaves a canonical prefix.

    Resume: the directory is claimed (:func:`_claim`); the level files and
    ``proofs.jsonl`` are the only record of progress (a torn final line is
    dropped), and missing records are redone.  A completion that finished
    behind a gap is lost from the outputs but kept in the cache, so a rerun
    does not pay for it again.  The manifest counts the finished tree, so a
    resumed tree is a clean one.  ``dry_run`` makes the same first wave of
    requests but writes each prompt to ``prompts/<name>.txt`` or
    ``prompts/<name>.step<i>.txt`` instead of sending it; later prompts read
    model answers, so it cannot write them.
    """
    # A dry run claims no directory, so the config may still change after it.
    _claim(out_dir, config, write=not dry_run)
    registry = _load_registry(config)
    notes = prompts.load_tactic_notes(config.tactic_notes)
    store, embed_provider = _retrieval_context(config)

    graph = depgraph.build_graph(index)
    assignment = depgraph.stratify(graph)
    statement_order = [name for level in assignment.levels for name in level]
    proof_names = index.tactic_proof_names()

    existing = _existing_pair_ids(out_dir)
    translations: dict[str, str] = {
        pid: pair.informal_text
        for pid, pair in existing.items()
        if pair.record_type == "statement"
    }

    def resolve_signature(name: str) -> str:
        return f"{name} : {index.declarations[name].signature}"

    def statement_prompt(name: str) -> str:
        subject = index.declarations[name]
        retrieved: tuple[retrieval.ScoredExample, ...] = ()
        if store is not None and embed_provider is not None:
            query = retrieval.embed(subject.signature, embed_provider)
            retrieved = tuple(retrieval.query_knn(store, query, config.retrieval_k))
        ctx = prompts.build_statement_context(
            subject,
            index,
            assignment,
            translations,
            retrieved=retrieved,
            neighbor_limit=config.neighbor_limit,
        )
        return prompts.assemble_statement_prompt(
            ctx,
            registry,
            resolve_signature=resolve_signature,
            max_chars=config.max_prompt_chars,
        ).text

    def proof_context(name: str) -> prompts.ProofContext:
        return prompts.ProofContext(
            formal_statement=index.declarations[name].signature,
            informal_statement=translations[name],
            steps=index.proofs[name],
            tactic_notes=notes,
        )

    # Dispatch state, touched only by this thread.  waiting[name] counts the
    # prerequisites of a statement that have no translation yet.
    prerequisites = graph.prerequisites()
    dependents = graph.dependents()
    waiting = {
        name: sum(dep not in translations for dep in prerequisites[name])
        for name in statement_order
    }
    has_proof = set(proof_names)
    step_texts: dict[str, list[str | None]] = {}

    def submit(prompt_text: str, *tag) -> None:
        if dry_run:
            kind, name, *rest = tag
            step = f".step{rest[0]}" if kind == "step" else ""
            (out_dir / "prompts" / f"{name}{step}.txt").write_text(prompt_text, encoding="utf-8")
        else:
            dispatch.submit(gateway.submit_role(informalizer, prompt_text), tag)

    def send_proof(name: str) -> None:
        if f"{name}::proof" in existing:
            return
        ctx = proof_context(name)
        step_texts[name] = [None] * len(ctx.steps)
        for step_index in range(len(ctx.steps)):
            step_prompt = prompts.assemble_step_prompt(ctx, step_index, registry)
            submit(step_prompt.text, "step", name, step_index)

    def start() -> None:
        for name in statement_order:
            if waiting[name] == 0 and name not in translations:
                submit(statement_prompt(name), "statement", name)
        for name in proof_names:
            if name in translations:
                send_proof(name)

    counts = {
        "statements": len(statement_order),
        "proofs": len(proof_names),
        "levels": len(assignment.levels),
        "dry_run": dry_run,
    }
    if dry_run:
        (out_dir / "prompts").mkdir(exist_ok=True)
        start()
        return counts

    informalizer = config.role("informalizer")
    gateway = config.gateway(cache_dir=out_dir / "cache")
    dispatch = _OrderedDispatch(
        statement_order + [f"{name}::proof" for name in proof_names], existing
    )

    def finish(pair: ds.NLFLPair) -> None:
        is_statement = pair.record_type == "statement"
        path = out_dir / (
            f"statements_level_{pair.level}.jsonl" if is_statement else "proofs.jsonl"
        )
        dispatch.finish(pair.id, path, ds.pair_line(pair))

    def settle(tag: tuple, completion: Completion) -> None:
        """Record one completion; unless stopping, send the work it unblocks.

        While stopping, a blank answer is dropped rather than raised, so the
        first error is the one reported and the prefix is still written.
        """
        kind, name, *rest = tag
        if dispatch.stopping and not completion.text.strip():
            return
        text = _answer_text(completion, f"{kind} {name}")
        subject = index.declarations[name]
        if kind == "statement":
            finish(
                ds.NLFLPair(
                    id=name,
                    formal_text=subject.signature,
                    informal_text=text,
                    direction=ds.Direction.NL_TO_FL,
                    provenance=ds.Provenance.ORIGINAL,
                    source_name=name,
                    level=assignment.level_of[name],
                )
            )
            translations[name] = text
            if dispatch.stopping:
                return
            for dependent in sorted(dependents[name]):
                waiting[dependent] -= 1
                if waiting[dependent] == 0 and dependent not in translations:
                    submit(statement_prompt(dependent), "statement", dependent)
            if name in has_proof:
                send_proof(name)
        elif kind == "step":
            texts = step_texts[name]
            texts[rest[0]] = text
            if not dispatch.stopping and None not in texts:
                del step_texts[name]
                summary = prompts.summarize_steps_prompt(texts, proof_context(name), registry)
                submit(summary.text, "summary", name)
        else:
            steps = index.proofs[name]
            finish(
                ds.NLFLPair(
                    id=f"{name}::proof",
                    formal_text=subject.signature
                    + " := by\n"
                    + "\n".join(f"  {s.tactic_text}" for s in steps),
                    informal_text=text,
                    direction=ds.Direction.NL_TO_FL,
                    provenance=ds.Provenance.ORIGINAL,
                    source_name=name,
                    level=assignment.level_of.get(name),
                    record_type="proof",
                )
            )

    try:
        dispatch.run(start, settle)
    finally:
        _close_stage("informalize", gateway)

    write_manifest(out_dir, "informalize", config, counts)
    return counts


def _pair_files(informalize_dir: Path) -> list[Path]:
    """The level files, then ``proofs.jsonl`` if there is one."""
    proofs = Path(informalize_dir) / "proofs.jsonl"
    return level_files(informalize_dir) + ([proofs] if proofs.exists() else [])


def load_statement_pairs(informalize_dir: Path) -> list[ds.NLFLPair]:
    return [pair for path in _pair_files(informalize_dir) for pair in ds.read_pairs(path)]


# --- augment ------------------------------------------------------------------


def run_augment(
    index: CorpusIndex,
    config: PipelineConfig,
    out_dir: Path,
    *,
    tactic: bool = True,
    informal: bool = False,
    original_pairs: list[ds.NLFLPair] | None = None,
) -> dict[str, int]:
    """Tactic-aug statements, dedup-sampled, and informal variants: one seeded
    strategy per statement (:func:`augment.strategy_order`), the next on a drop,
    written in source order as ``{id}__var{j}``, ``j`` its index in
    :func:`augment.all_strategies`.  Record files go through ``replace_atomic``,
    so a kill can tear only the completion log, which a rerun reads back."""
    out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    gateway = config.gateway(cache_dir=out_dir / "cache")
    backend = validate.cache_checks(config.backend.build(), out_dir / "cache") if tactic else None
    try:
        if tactic:
            synthesized = aug.synthesize_for_index(index)
            valid, rejected = aug.compile_filter(
                synthesized, backend, config.compile_timeout_ms
            )
            aug.write_rejected_report(rejected, out_dir / "rejected.jsonl")
            n_original = len(index.tactic_proof_names())
            sampled = aug.dedup_sample(valid, n_original, config.dedup_seed)

            ds.replace_atomic(
                out_dir / "synthesized.jsonl",
                (json.dumps(asdict(stmt), ensure_ascii=False) + "\n" for stmt in valid),
            )

            informalizer = config.role("informalizer")
            registry = _load_registry(config)
            pairs = []
            for stmt in sampled:
                ctx = prompts.StatementContext(subject=stmt.record())
                prompt = prompts.assemble_statement_prompt(ctx, registry)
                completion = gateway.submit_role(informalizer, prompt.text).result()
                informal_text = _answer_text(completion, f"statement {stmt.name}")
                pairs.append(
                    ds.NLFLPair(
                        id=stmt.name,
                        formal_text=stmt.formal_text,
                        informal_text=informal_text,
                        direction=ds.Direction.NL_TO_FL,
                        provenance=ds.Provenance.TACTIC_AUG,
                        source_name=stmt.origin,
                    )
                )
            ds.write_pairs_atomic(pairs, out_dir / "tactic_aug.jsonl")
            counts.update(
                {
                    "synthesized": len(synthesized),
                    "compile_valid": len(valid),
                    "compile_rejected": len(rejected),
                    "tactic_aug_pairs": len(pairs),
                }
            )

        if informal:
            if original_pairs is None:
                raise InvalidInput("informal augmentation needs the original pairs")
            augmenter = config.role("augmenter")
            strategies = aug.all_strategies()
            variants: list[ds.NLFLPair] = []
            attempted = dropped = 0
            source_pairs = [
                p for p in original_pairs if p.record_type == "statement" and p.formal_text
            ]
            for pair in source_pairs:
                order = aug.strategy_order(pair.id, config.dedup_seed)
                batch = aug.informal_variants(pair, order, gateway, augmenter)
                attempted += batch.attempted
                dropped += batch.dropped
                for variant in batch.variants:
                    variants.append(
                        ds.NLFLPair(
                            id=f"{pair.id}__var{strategies.index(variant.strategy)}",
                            formal_text=pair.formal_text,
                            informal_text=variant.informal_text,
                            direction=ds.Direction.NL_TO_FL,
                            provenance=ds.Provenance.INFORMAL_AUG,
                            source_name=pair.source_name,
                            level=pair.level,
                        )
                    )
            ds.write_pairs_atomic(variants, out_dir / "informal_aug.jsonl")
            counts.update(
                {
                    "variants_attempted": attempted,
                    "variants_dropped": dropped,
                    "informal_aug_pairs": len(variants),
                }
            )
    finally:
        _close_stage("augment", gateway, backend)

    write_manifest(out_dir, "augment", config, counts)
    return counts


# --- mix ------------------------------------------------------------------------


def _general_pair(obj: dict) -> ds.NLFLPair:
    return ds.NLFLPair(
        id=obj["id"],
        formal_text="",
        informal_text=obj["text"],
        direction=None,
        provenance=ds.Provenance.GENERAL,
        record_type="instruction",
    )


def load_general_pairs(path: Path) -> list[ds.NLFLPair]:
    """General-domain instruction data: JSONL rows {id, text}."""
    return list(ds.read_jsonl(path, _general_pair, "general record"))


def run_mix(
    original: list[ds.NLFLPair],
    tactic_aug: list[ds.NLFLPair],
    informal_aug: list[ds.NLFLPair],
    general: list[ds.NLFLPair],
    config: PipelineConfig,
    out_dir: Path,
    total: int,
) -> ds.MixManifest:
    out_dir.mkdir(parents=True, exist_ok=True)
    records, manifest = ds.mix(
        original,
        tactic_aug,
        informal_aug,
        general,
        total=total,
        ratios=config.ratio,
        dirmix=config.dirmix,
        seed=config.mix_seed,
    )
    ds.write_pairs_atomic(records, out_dir / "dataset.jsonl")
    (out_dir / "mix_manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    write_manifest(out_dir, "mix", config, {"total": manifest.total})
    return manifest


# --- validate ---------------------------------------------------------------------


def _benchmark_item(obj: dict) -> dict:
    return {
        "id": str(obj["id"]),
        "informal_text": obj["informal_text"],
        "header": obj.get("header"),
    }


def load_benchmark(path: Path) -> list[dict]:
    return list(ds.read_jsonl(path, _benchmark_item, "benchmark record"))


def _written_report_count(path: Path, items: list[dict]) -> int:
    """How many reports an earlier run left in ``reports.jsonl``.

    They must be the reports of the benchmark's first items, in order; a torn
    final line is dropped.
    """
    if not path.exists():
        return 0
    ds.drop_torn_tail(path)
    count = 0
    for report in validate.read_reports(path):
        expected = items[count]["id"] if count < len(items) else None
        if report.item_id != expected:
            raise SchemaError(
                f"report for {report.item_id!r} where the benchmark has {expected!r}",
                f"{path}: report {count + 1}",
            )
        count += 1
    return count


def run_validate(
    bench_path: Path,
    config: PipelineConfig,
    out_dir: Path,
    k: int | None = None,
    dataset_name: str | None = None,
) -> validate.BenchmarkSummary:
    """pass@k over a benchmark, streamed to ``reports.jsonl`` in benchmark order.

    Dispatch: items are opened in benchmark order, at most
    ``4 * max_in_flight`` unfinished at a time, each a
    :class:`validate.ItemRun` whose requests all go through the gateway pool;
    compile checks run on this thread as candidates come up.  Items run
    concurrently, and each report is appended as soon as every earlier one
    is on disk, so ``reports.jsonl`` does not depend on ``max_in_flight``.

    Resume: the directory is claimed (:func:`_claim`) with ``pass_k`` set to
    ``k``.  ``reports.jsonl`` is the only record of progress.  It must hold
    the reports of a prefix of the benchmark (a torn final line is dropped);
    those items are skipped and the rest are run.  What the earlier run paid
    for comes from the cache: its completions from
    ``cache/completions.jsonl`` and, with a REPL backend, its compile checks
    from ``cache/checks.jsonl`` (:func:`validate.cache_checks`), so no
    candidate is checked twice.  ``summary.json`` and the manifest are built
    from the whole file.
    """
    if k is not None:
        config = replace(config, pass_k=k)  # which bounds k by SAMPLE_CAP
    k = config.pass_k
    items = load_benchmark(bench_path)
    if not items:
        raise InvalidInput(f"benchmark {bench_path} is empty")
    roles = validate.Roles(
        translator=config.role("translator"),
        back_translator=config.role("back_translator"),
        nli_judge=config.role("nli_judge"),
    )
    _claim(out_dir, config)
    reports_path = out_dir / "reports.jsonl"
    written = _written_report_count(reports_path, items)
    backend = validate.cache_checks(config.backend.build(), out_dir / "cache")
    gateway = config.gateway(cache_dir=out_dir / "cache")
    dispatch = _OrderedDispatch(range(len(items)), range(written))
    todo = iter(range(written, len(items)))
    # Enough open items to keep the pool busy while some wait on a compile
    # check or a verdict; few enough that pending futures stay bounded by
    # max_in_flight and k, not by the benchmark's size.
    window = 4 * config.max_in_flight
    runs: dict[int, validate.ItemRun] = {}  # the unfinished items, by position

    def open_items() -> None:
        while len(runs) < window:
            position = next(todo, None)
            if position is None:
                return
            item = items[position]
            run = validate.ItemRun(
                item["informal_text"],
                k,
                roles,
                backend,
                gateway,
                lambda future, tag, key=position: dispatch.submit(future, (key, tag)),
                item_id=item["id"],
                header=item["header"] if item["header"] is not None else config.header_prelude,
                timeout_ms=config.compile_timeout_ms,
                short_circuit=config.short_circuit,
            )
            runs[position] = run
            run.start()

    def settle(tag: tuple, completion: Completion) -> None:
        if dispatch.stopping:
            return  # the rerun takes these from the cache
        position, step = tag
        report = runs[position].settle(step, completion)
        if report is not None:
            del runs[position]
            dispatch.finish(position, reports_path, validate.report_line(report))
            open_items()

    try:
        dispatch.run(open_items, settle)
    finally:
        _close_stage("validate", gateway, backend)
    summary = validate.summarize(
        validate.read_reports(reports_path), dataset_name or Path(bench_path).stem
    )
    (out_dir / "summary.json").write_text(
        validate.summary_to_json(summary) + "\n", encoding="utf-8"
    )
    write_manifest(
        out_dir, "validate", config, {"k": k, "items": len(items), "succeeded": summary.succeeded}
    )
    return summary
