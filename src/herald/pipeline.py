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
from dataclasses import replace
from pathlib import Path
from typing import Callable, Container, Hashable, Iterable, Sequence, TextIO

from . import augment as aug
from . import datastore as ds
from . import depgraph, ingest, prompts, retrieval, validate
from .config import PipelineConfig
from .errors import BlankAnswer, InvalidInput, NoTemplate, SchemaError
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
    outside = 0
    for name, dep in depgraph.outside_dependencies(index):
        logger.warning("unresolved dependency '%s' of '%s'", dep, name)
        outside += 1
    write_manifest(out_dir, "ingest", config, {
        "declarations": len(index.declarations), "proofs": len(index.proofs), "warnings": outside})
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
    edges = sum(map(len, graph.prerequisites.values()))
    write_manifest(out_dir, "stratify", config, {
        "nodes": len(graph.prerequisites), "edges": edges, "levels": len(assignment.levels)})
    return assignment


# --- informalize -------------------------------------------------------------

# Futures pending, plus records waiting to be written, per ``max_in_flight``
# slot.  At 8, validate's last serial judge chains opened late and ran nearly
# alone; 24 to 64 time the same.
# Under a request budget it stays 8: the pool answers in the order sent, so a
# deeper window spends the budget opening units, and a cut keeps no record.
DISPATCH_WINDOW, BUDGET_WINDOW = 32, 8


class _OrderedDispatch:
    """One canonical order of keys, walked by one send cursor; records
    appended to their JSONL files in that order.

    :meth:`run` calls ``send(key)`` for each key of ``order`` that is not
    ``on_disk``, in order, while the pending futures and the finished but
    unwritten records together number fewer than ``DISPATCH_WINDOW *
    max_in_flight`` (``BUDGET_WINDOW * max_in_flight`` under a request
    budget).  ``send`` builds the key's prompts and sends their futures with
    :meth:`submit`, or returns False while the key waits on an answer still
    to come; the cursor then stays on it until a completion is settled.  A
    False ``send`` always has a pending future ahead of it: the order is
    topological, each key waits only on answers for earlier keys, and every
    earlier key is on disk, settled or pending.  Records are written before
    the cursor looks, so a cursor that stops with nothing pending is a key
    left waiting on no answer, and :meth:`run` raises ``RuntimeError``
    rather than return on a partial tree.  Each completion goes to
    ``settle(tag, completion)`` on the calling thread once ``gateway`` has
    logged what it paid for; a follow-up request that ``settle`` makes
    replaces the future it settles.  A record handed to :meth:`finish` is
    appended, and flushed, once every earlier key's record is on disk.  So
    pending futures and unwritten records stay within the window plus the
    largest key's requests, the files do not depend on ``max_in_flight``,
    and an interrupted run leaves a canonical prefix.

    On the first error, queued requests are cancelled, no further key is
    sent, the prefix is flushed and the error is re-raised.  A request
    already running still lands in the completion log, since the gateway's
    close waits for its pool, so a rerun takes it from the cache.
    """

    def __init__(
        self, gateway: Gateway, order: Sequence[Hashable], on_disk: Container[Hashable] = ()
    ):
        self._gateway = gateway
        self._order = order
        self._on_disk = on_disk
        self._sent = self._written = 0  # the send and write cursors into ``order``
        self._finished: dict[Hashable, tuple[Path, str]] = {}
        self._handles: dict[Path, TextIO] = {}
        self._pending: dict[futures.Future, object] = {}
        self._completed: queue.SimpleQueue = queue.SimpleQueue()
        depth = DISPATCH_WINDOW if gateway.config.request_budget is None else BUDGET_WINDOW
        self._window = depth * gateway.config.max_in_flight

    def submit(self, future: futures.Future, tag: object) -> None:
        self._pending[future] = tag
        future.add_done_callback(self._completed.put)

    def finish(self, key: Hashable, path: Path, line: str) -> None:
        self._finished[key] = (path, line)

    def _flush(self) -> None:
        while self._written < self._sent:
            key = self._order[self._written]
            if key in self._finished:
                path, line = self._finished.pop(key)
                handle = self._handles.get(path)
                if handle is None:
                    handle = self._handles[path] = open(path, "a", encoding="utf-8")
                handle.write(line)
                handle.flush()
            elif key not in self._on_disk:
                return
            self._written += 1

    def run(
        self, send: Callable[[Hashable], bool], settle: Callable[[object, Completion], None]
    ) -> None:
        """Returns once every key is sent and no future is pending."""
        try:
            while True:
                # Records are written first, so the room they free is used
                # before the cursor looks.
                self._flush()
                while (self._sent < len(self._order)
                       and len(self._pending) + len(self._finished) < self._window):
                    key = self._order[self._sent]
                    if key not in self._on_disk and not send(key):
                        break
                    self._sent += 1
                if not self._pending:
                    break
                future = self._completed.get()
                self._gateway.append_paid()
                settle(self._pending.pop(future), future.result())
            if self._sent < len(self._order):
                raise RuntimeError(
                    f"dispatch stopped at {self._order[self._sent]!r} with no request pending"
                )
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


def _load_registry(config: PipelineConfig, kinds: Iterable[str],
                   retrieved: bool = False) -> prompts.TemplateRegistry:
    """The configured template registry, or the bundled one.  It is a
    :class:`SchemaError` naming the registry if it has no template for a kind
    in ``kinds``, or if that template marks ``required`` a placeholder that a
    prompt for the kind can leave empty (:func:`prompts.filled_placeholders`;
    ``retrieved``: every statement prompt holds retrieved examples)."""
    path = config.template_registry
    registry = (prompts.default_registry() if path is None
                else prompts.TemplateRegistry.from_path(path))
    for kind in sorted(kinds):
        try:
            template = registry.select(kind)
        except NoTemplate as exc:
            raise SchemaError(str(exc), f"{path}: $.templates") from exc
        filled = prompts.filled_placeholders(template, kind, retrieved)
        for seg in template.segments:
            if seg.kind == "placeholder" and seg.required and seg.name not in filled:
                raise SchemaError(f"template {template.id} requires '{seg.name}', which a "
                                  f"'{kind}' prompt can leave empty", f"{path}: $.templates")
    return registry


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

    Dispatch (:class:`_OrderedDispatch`): the canonical order is each
    level's statements by name, then that level's proofs by name, and one
    cursor sends and writes in it.  A statement is sent once each of its
    prerequisites, all at lower levels, has a translation; its prompt reads
    only those, so it is the one a level-by-level pass would build.  A
    proof's steps are sent once its statement's translation is back, and its
    summary once every step is back.  So the output tree does not depend on
    ``max_in_flight`` and an interrupted run leaves a canonical prefix.

    Resume: the directory is claimed (:func:`_claim`); the level files and
    ``proofs.jsonl`` are the only record of progress (a torn final line is
    dropped), and missing records are redone.  A completion that finished
    behind a gap, or was still running at the first error, is lost from the
    outputs but kept in the cache, so a rerun does not pay for it again.  The
    manifest counts the finished tree, so a resumed tree is a clean one.
    ``dry_run`` walks the same order and writes the prompt of every statement
    and proof step that is ready to ``prompts/<name>.txt`` or
    ``prompts/<name>.step<i>.txt`` instead of sending it, with ``%``, ``/``
    and NUL in the name written ``%25``, ``%2F`` and ``%00``; later prompts
    read model answers, so it cannot write them.
    """
    config.check()
    proof_names = index.tactic_proof_names()
    kinds = {rec.kind.value for rec in index.declarations.values()}
    if proof_names:
        kinds |= {"proof", "summary"}
    store, embed_provider = _retrieval_context(config)
    registry = _load_registry(config, kinds, retrieved=store is not None)
    notes = prompts.load_tactic_notes(config.tactic_notes)
    graph = depgraph.build_graph(index)
    assignment = depgraph.stratify(graph)
    # Inputs are read and stratified first, so a malformed one or a cycle
    # leaves no claim; a dry run claims nothing, so the config may change after.
    _claim(out_dir, config, write=not dry_run)
    proof_of = {f"{name}::proof": name for name in proof_names}
    # The canonical order: each level's statements by name, then its proofs by name.
    order = [key for level in assignment.levels
             for key in (*level, *(f"{n}::proof" for n in level if f"{n}::proof" in proof_of))]

    existing = _existing_pair_ids(out_dir)
    # A tree begun under another index may hold statements this one lacks;
    # they resolve no dependency here, so no prompt reads them.
    translations: dict[str, str] = {
        pid: pair.informal_text
        for pid, pair in existing.items()
        if pair.record_type == "statement" and pid in index.declarations
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

    step_texts: dict[str, list[str | None]] = {}  # a proof's step answers, by its name

    def submit(prompt_text: str, *tag) -> None:
        if dry_run:
            kind, name, *rest = tag
            stem = name.replace("%", "%25").replace("/", "%2F").replace("\0", "%00")
            step = f".step{rest[0]}" if kind == "step" else ""
            (out_dir / "prompts" / f"{stem}{step}.txt").write_text(prompt_text, encoding="utf-8")
        else:
            dispatch.submit(gateway.submit_role(informalizer, prompt_text), tag)

    def send(key: str) -> bool:
        """Send the statement or proof steps of ``key`` if its answers are in."""
        name = proof_of.get(key)
        if name is None:
            if not all(dep in translations for dep in graph.prerequisites[key]):
                return False
            submit(statement_prompt(key), "statement", key)
            return True
        if name not in translations:
            return False
        ctx = proof_context(name)
        step_texts[name] = [None] * len(ctx.steps)
        for step_index in range(len(ctx.steps)):
            step_prompt = prompts.assemble_step_prompt(ctx, step_index, registry)
            submit(step_prompt.text, "step", name, step_index)
        return True

    counts = {
        "statements": len(index.declarations),
        "proofs": len(proof_names),
        "levels": len(assignment.levels),
        "dry_run": dry_run,
    }
    if dry_run:
        (out_dir / "prompts").mkdir(exist_ok=True)
        for key in order:
            if key not in existing:
                send(key)
        return counts

    informalizer = config.role("informalizer")
    gateway = Gateway(config, out_dir)
    dispatch = _OrderedDispatch(gateway, order, existing)

    def finish(pair: ds.NLFLPair) -> None:
        is_statement = pair.record_type == "statement"
        path = out_dir / (
            f"statements_level_{pair.level}.jsonl" if is_statement else "proofs.jsonl"
        )
        dispatch.finish(pair.id, path, ds.pair_line(pair))

    def settle(tag: tuple, completion: Completion) -> None:
        """Record one completion, or send its proof's summary once the steps are in."""
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
                    level=assignment.level_of[name],
                    record_type="proof",
                )
            )

    try:
        dispatch.run(send, settle)
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
    index in :data:`augment.STRATEGIES`.  One :class:`_OrderedDispatch` sends
    the sampled statements, then each statement's first variant, in order; a
    dropped variant's next strategy is sent from ``settle``.  Record files
    are written whole after the run with ``replace_atomic``, so a kill can
    tear only the completion log, which a rerun reads back."""
    config.check()
    if informal and original_pairs is None:
        raise InvalidInput("informal augmentation needs the original pairs")
    registry = _load_registry(config, ("theorem",)) if tactic else None
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
                (json.dumps(vars(stmt), ensure_ascii=False) + "\n" for stmt in valid),
            )
            counts.update(
                synthesized=len(synthesized),
                compile_valid=len(valid),
                compile_rejected=len(rejected),
            )
            informalizer = config.role("informalizer")
        augmenter = config.role("augmenter") if informal else None

        def send(key: tuple) -> bool:
            """Send the statement's prompt, or the variant's next strategy."""
            kind, position = key
            if kind == "statement":
                role = informalizer
                ctx = prompts.StatementContext(subject=sampled[position].record())
                prompt_text = prompts.assemble_statement_prompt(ctx, registry).text
            else:
                role = augmenter
                strategy = orders[position][len(answers[position])]
                prompt_text = aug.strategy_prompt(strategy, source_pairs[position].informal_text)
            dispatch.submit(gateway.submit_role(role, prompt_text), key)
            return True

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
                send(tag)

        keys = [("statement", position) for position in range(len(sampled))]
        keys += [("variant", position) for position in range(len(source_pairs))]
        dispatch = _OrderedDispatch(gateway, keys)
        dispatch.run(send, settle)
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

    Dispatch: :class:`_OrderedDispatch` opens each item in benchmark order
    when its window has room, as a :class:`validate.ItemRun` whose requests
    all go through the gateway pool; compile checks run on this thread as
    candidates come up.  An open item holds at most k
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

    def open_item(position: int) -> bool:
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
        return True

    def settle(tag: tuple, completion: Completion) -> None:
        position, step = tag
        report = runs[position].settle(step, completion)
        if report is not None:
            del runs[position]
            dispatch.finish(position, reports_path, validate.report_line(report))

    try:
        dispatch.run(open_item, settle)
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
