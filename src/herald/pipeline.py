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
from collections import deque
from concurrent import futures
from dataclasses import replace
from functools import partial
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
        previous = _read_text(digest_file).strip()
        if previous != config.config_digest:
            raise InvalidInput(
                f"{out_dir} was produced with config digest {previous[:12]}, "
                f"current config is {config.config_digest[:12]}; refusing to resume"
            )
    elif write:
        ds.replace_atomic(digest_file, [config.config_digest + "\n"])


def _read_text(path: Path) -> str:
    """The text of ``path``; bytes that are not UTF-8 are a :class:`SchemaError` naming it."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: {exc}", str(path)) from None


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
    """The corpus export or ``index.json`` at ``path``; an error names the file."""
    return ingest.parse_jixia_export(Path(path).read_bytes(), f"{path}: $")


# --- ingest ----------------------------------------------------------------


def run_ingest(config: PipelineConfig, out_dir: Path) -> CorpusIndex:
    config.check()
    if config.corpus_export is not None:
        index = load_index(config.corpus_export)
    elif config.source_dir is not None:
        index = ingest_source_tree(config.source_dir)
    else:
        raise InvalidInput("ingest needs either a corpus export or a source directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    ds.replace_atomic(out_dir / "index.json", ingest.index_pieces(index))
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
        result = ingest.scan_declarations(_read_text(path), file_path=rel)
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
    config.check()
    graph = depgraph.build_graph(index)
    assignment = depgraph.stratify(graph)
    out_dir.mkdir(parents=True, exist_ok=True)
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

# Futures pending per ``max_in_flight`` slot.  At 8, validate's last serial
# judge chains opened late and ran nearly alone; 24 to 64 time the same.
# Under a request budget it stays 8: the pool answers in the order sent, so a
# deeper window spends the budget opening units, and a cut keeps no record.
DISPATCH_WINDOW, BUDGET_WINDOW = 32, 8


class _OrderedDispatch:
    """Deferred units in; records appended to their JSONL files in canonical order.

    A *unit*, handed to ``defer``, builds its prompts and sends their
    futures with :meth:`submit`.  :meth:`run` calls the units in the order
    deferred, each only while fewer than ``DISPATCH_WINDOW * max_in_flight``
    futures (``BUDGET_WINDOW * max_in_flight`` under a request budget) are
    pending, and feeds each completion to ``settle(tag, completion)`` on the
    calling thread once ``gateway`` has logged what it paid for.  A
    follow-up request that ``settle`` makes replaces the future it settles
    and is submitted directly; work that settling makes ready is deferred.
    So pending futures and built prompts stay within the window plus the
    largest unit, not the corpus.  ``order`` lists every record key in
    canonical order and ``on_disk`` the keys an earlier run wrote; a record
    handed to :meth:`finish` is appended, and flushed, once every earlier
    one is on disk, so the files do not depend on ``max_in_flight`` and an
    interrupted run leaves a canonical prefix.

    On the first error, queued requests are cancelled, deferred units are
    dropped, the prefix is flushed and the error is re-raised.  A request
    already running still lands in the completion log, since the gateway's
    close waits for its pool, so a rerun takes it from the cache.
    """

    def __init__(
        self, gateway: Gateway, order: Sequence[Hashable] = (), on_disk: Container[Hashable] = ()
    ):
        self._gateway = gateway
        self._order = order
        self._on_disk = on_disk
        self._cursor = 0
        self._finished: dict[Hashable, tuple[Path, str]] = {}
        self._handles: dict[Path, TextIO] = {}
        self._pending: dict[futures.Future, object] = {}
        self._completed: queue.SimpleQueue = queue.SimpleQueue()
        self._deferred: deque[Callable[[], None]] = deque()
        self.defer = self._deferred.append
        depth = DISPATCH_WINDOW if gateway.config.request_budget is None else BUDGET_WINDOW
        self._window = depth * gateway.config.max_in_flight

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

    def run(self, settle: Callable[[object, Completion], None]) -> None:
        """Returns once no unit is deferred and no future is pending."""
        try:
            while True:
                while self._deferred and len(self._pending) < self._window:
                    self._deferred.popleft()()
                self._flush()
                if not self._pending:
                    return
                future = self._completed.get()
                self._gateway.append_paid()
                settle(self._pending.pop(future), future.result())
        except BaseException:
            # Keep every finished record that extends the canonical prefix,
            # then let the caller see the first error.
            for future in self._pending:
                future.cancel()
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
    if store.count == 0:
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

    Dispatch (:class:`_OrderedDispatch`): a statement is deferred as one unit
    as soon as each of its prerequisites has a translation (Kahn's ready set
    over the dependency graph).  Its prompt reads only those translations,
    so every prompt is the one a level-by-level pass would build, whenever
    the window sends it.  A proof's steps are one unit, deferred once its
    statement translation lands, and its summary is sent once every step is
    back.  Records are written in canonical order (statements level by
    level, then proofs by name), so the output tree does not depend on
    ``max_in_flight`` and an interrupted run leaves a canonical prefix.

    Resume: the directory is claimed (:func:`_claim`); the level files and
    ``proofs.jsonl`` are the only record of progress (a torn final line is
    dropped), and missing records are redone.  A completion that finished
    behind a gap, or was still running at the first error, is lost from the
    outputs but kept in the cache, so a rerun does not pay for it again.  The
    manifest counts the finished tree, so a resumed tree is a clean one.
    ``dry_run`` makes the same first wave of requests but writes each prompt
    to ``prompts/<name>.txt`` or ``prompts/<name>.step<i>.txt`` instead of
    sending it; later prompts read model answers, so it cannot write them.
    """
    config.check()
    registry = _load_registry(config)
    notes = prompts.load_tactic_notes(config.tactic_notes)
    store, embed_provider = _retrieval_context(config)
    graph = depgraph.build_graph(index)
    assignment = depgraph.stratify(graph)
    # Inputs are read and stratified first, so a malformed one or a cycle
    # leaves no claim; a dry run claims nothing, so the config may change after.
    _claim(out_dir, config, write=not dry_run)
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

    def send_statement(name: str) -> None:
        submit(statement_prompt(name), "statement", name)

    def send_proof(name: str) -> None:
        if f"{name}::proof" in existing:
            return
        ctx = proof_context(name)
        step_texts[name] = [None] * len(ctx.steps)
        for step_index in range(len(ctx.steps)):
            step_prompt = prompts.assemble_step_prompt(ctx, step_index, registry)
            submit(step_prompt.text, "step", name, step_index)

    counts = {
        "statements": len(statement_order),
        "proofs": len(proof_names),
        "levels": len(assignment.levels),
        "dry_run": dry_run,
    }
    first_wave = [partial(send_statement, name) for name in statement_order
                  if waiting[name] == 0 and name not in translations]
    first_wave += [partial(send_proof, name) for name in proof_names if name in translations]
    if dry_run:
        (out_dir / "prompts").mkdir(exist_ok=True)
        for unit in first_wave:
            unit()
        return counts

    informalizer = config.role("informalizer")
    gateway = Gateway(config, out_dir)
    dispatch = _OrderedDispatch(
        gateway, statement_order + [f"{name}::proof" for name in proof_names], existing
    )
    for unit in first_wave:
        dispatch.defer(unit)

    def finish(pair: ds.NLFLPair) -> None:
        is_statement = pair.record_type == "statement"
        path = out_dir / (
            f"statements_level_{pair.level}.jsonl" if is_statement else "proofs.jsonl"
        )
        dispatch.finish(pair.id, path, ds.pair_line(pair))

    def settle(tag: tuple, completion: Completion) -> None:
        """Record one completion; send its follow-up, defer the work it unblocks."""
        kind, name, *rest = tag
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
            for dependent in sorted(dependents[name]):
                waiting[dependent] -= 1
                if waiting[dependent] == 0 and dependent not in translations:
                    dispatch.defer(partial(send_statement, dependent))
            if name in has_proof:
                dispatch.defer(partial(send_proof, name))
        elif kind == "step":
            texts = step_texts[name]
            texts[rest[0]] = text
            if None not in texts:
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
        dispatch.run(settle)
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
    written in source order as ``{id}__var{j}``, ``j`` the kept strategy's
    index in :data:`augment.STRATEGIES`.  Each sampled statement and each first
    variant is a unit of one :class:`_OrderedDispatch`.  Record files are
    written whole after the run with ``replace_atomic``, so a kill can tear
    only the completion log, which a rerun reads back."""
    config.check()
    if informal and original_pairs is None:
        raise InvalidInput("informal augmentation needs the original pairs")
    out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    sampled: list[aug.SynthesizedStatement] = []
    texts: dict[int, str] = {}  # the answer for sampled[i]
    source_pairs = [
        p for p in original_pairs or () if p.record_type == "statement" and p.formal_text
    ] if informal else []
    orders = [aug.strategy_order(pair.id, config.dedup_seed) for pair in source_pairs]
    answers: list[list[str]] = [[] for _ in source_pairs]  # per strategy asked, in order
    gateway = Gateway(config, out_dir)
    backend = validate.cache_checks(config.backend.build(), gateway.cache_dir) if tactic else None
    dispatch = _OrderedDispatch(gateway)
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
                (json.dumps({"name": stmt.name, "formal_text": stmt.formal_text,
                             "origin": stmt.origin, "origin_step": stmt.origin_step,
                             "goal_index": stmt.goal_index,
                             "context_preamble": stmt.context_preamble},
                            ensure_ascii=False) + "\n" for stmt in valid),
            )
            counts.update(
                synthesized=len(synthesized),
                compile_valid=len(valid),
                compile_rejected=len(rejected),
            )
            informalizer = config.role("informalizer")
            registry = _load_registry(config)
        augmenter = config.role("augmenter") if informal else None

        def ask_variant(position: int) -> None:
            strategy = orders[position][len(answers[position])]
            prompt_text = aug.strategy_prompt(strategy, source_pairs[position].informal_text)
            dispatch.submit(gateway.submit_role(augmenter, prompt_text), ("variant", position))

        def ask_statement(position: int) -> None:
            ctx = prompts.StatementContext(subject=sampled[position].record())
            prompt = prompts.assemble_statement_prompt(ctx, registry)
            dispatch.submit(gateway.submit_role(informalizer, prompt.text), ("statement", position))

        for position in range(len(sampled)):
            dispatch.defer(partial(ask_statement, position))
        for position in range(len(source_pairs)):
            dispatch.defer(partial(ask_variant, position))

        def settle(tag: tuple, completion: Completion) -> None:
            """Keep the answer; ask the next strategy when a variant is dropped."""
            kind, position = tag
            if kind == "statement":
                texts[position] = _answer_text(completion, f"statement {sampled[position].name}")
                return
            pair, order, tried = source_pairs[position], orders[position], answers[position]
            subject = f"variant {aug.STRATEGIES[order[len(tried)]][0]} of {pair.id}"
            tried.append(_answer_text(completion, subject))
            if not aug.differs(pair, tried[-1]) and len(tried) < len(order):
                ask_variant(position)

        dispatch.run(settle)
    finally:
        _close_stage("augment", gateway, backend)

    if tactic:
        pairs = [
            ds.NLFLPair(
                id=stmt.name,
                formal_text=stmt.formal_text,
                informal_text=texts[position],
                direction=ds.Direction.NL_TO_FL,
                provenance=ds.Provenance.TACTIC_AUG,
                source_name=stmt.origin,
            )
            for position, stmt in enumerate(sampled)
        ]
        ds.write_pairs_atomic(pairs, out_dir / "tactic_aug.jsonl")
        counts["tactic_aug_pairs"] = len(pairs)
    if informal:
        batches = [aug.informal_variants(*job) for job in zip(source_pairs, orders, answers)]
        variants = [
            ds.NLFLPair(
                id=f"{pair.id}__var{j}",
                formal_text=pair.formal_text,
                informal_text=text,
                direction=ds.Direction.NL_TO_FL,
                provenance=ds.Provenance.INFORMAL_AUG,
                source_name=pair.source_name,
                level=pair.level,
            )
            for pair, batch in zip(source_pairs, batches)
            for j, text in batch.variants
        ]
        ds.write_pairs_atomic(variants, out_dir / "informal_aug.jsonl")
        counts.update(
            variants_attempted=sum(batch.attempted for batch in batches),
            variants_dropped=sum(batch.dropped for batch in batches),
            informal_aug_pairs=len(variants),
        )

    write_manifest(out_dir, "augment", config, counts)
    return counts


# --- mix ------------------------------------------------------------------------


def _general_pair(obj: dict) -> ds.NLFLPair:
    ds.check_shape(obj, {"id": str, "text": str})
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
    config.check()
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
    out_dir.mkdir(parents=True, exist_ok=True)
    ds.write_pairs_atomic(records, out_dir / "dataset.jsonl")
    (out_dir / "mix_manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    write_manifest(out_dir, "mix", config, {"total": manifest.total})
    return manifest


# --- validate ---------------------------------------------------------------------


_BENCH_ITEM = {"informal_text": str, "header": (str, type(None))}


def _benchmark_item(obj: dict) -> dict:
    """A benchmark row: ``id`` is any JSON value, stringified, and a left-out
    ``header`` is null."""
    obj = {"header": None, **obj}
    ds.check_shape(obj, _BENCH_ITEM)
    if not obj["informal_text"]:
        raise SchemaError('must be a non-empty string, got ""', "$.informal_text")
    return {"id": str(obj["id"]), "informal_text": obj["informal_text"], "header": obj["header"]}


def load_benchmark(path: Path) -> list[dict]:
    """The benchmark's rows; a row whose stringified id repeats an earlier
    one's is a :class:`SchemaError` at its line, naming the first."""
    return list(ds.read_jsonl(path, _benchmark_item, "benchmark record",
                              unique=lambda item: f"id {item['id']!r}"))


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

    Dispatch: each item is a unit of :class:`_OrderedDispatch`, opened in
    benchmark order when its window has room, as a :class:`validate.ItemRun`
    whose requests all go through the gateway pool; compile checks run on
    this thread as candidates come up.  An open item holds at most k
    futures, so at most the window plus k - 1 are pending (without
    ``short_circuit``, a late sample can send several back-translations past
    that).  Items run concurrently; a report is appended once every earlier
    one is on disk, so ``reports.jsonl`` does not depend on ``max_in_flight``.

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
    config = config if k is None else replace(config, pass_k=k)
    config.check()
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
    gateway = Gateway(config, out_dir)
    backend = validate.cache_checks(config.backend.build(), gateway.cache_dir)
    dispatch = _OrderedDispatch(gateway, range(len(items)), range(written))
    runs: dict[int, validate.ItemRun] = {}  # the unfinished items, by position

    def open_item(position: int) -> None:
        item = items[position]
        run = runs[position] = validate.ItemRun(
            item["informal_text"], k, roles, backend, gateway,
            lambda future, tag: dispatch.submit(future, (position, tag)),
            item_id=item["id"],
            header=item["header"] if item["header"] is not None else config.header_prelude,
            timeout_ms=config.compile_timeout_ms,
            short_circuit=config.short_circuit,
        )
        run.start()

    def settle(tag: tuple, completion: Completion) -> None:
        position, step = tag
        report = runs[position].settle(step, completion)
        if report is not None:
            del runs[position]
            dispatch.finish(position, reports_path, validate.report_line(report))

    for position in range(written, len(items)):
        dispatch.defer(partial(open_item, position))
    try:
        dispatch.run(settle)
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
