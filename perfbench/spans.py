"""Spans around herald's layer boundaries, for the traced benchmark run.

Wrappers are installed with ``setattr`` on the herald modules, on
``Gateway`` and on the compiler backend classes.  Every call site resolves
these names through the module (or class) at call time, so the wrappers see
every call without a change to herald.  A span records its name, start,
end, thread and parent, is kept in memory and is written out when the run
ends.  Provider spans come from the latency wrapper and are parented to the
``Gateway.complete`` span whose request caused them, also when they run on
a pool thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

STAGES = ("ingest", "stratify", "informalize", "augment", "mix", "stats", "validate")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.gateways: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request_span: dict[int, int] = {}

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, threading.get_ident(),
                    stack[-1] if stack else None)
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(attrs, result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(span.attrs, result)
            return result

        return traced

    def wrap_complete(self, fn):
        """``Gateway.complete``, which also maps its request to its span."""

        @functools.wraps(fn)
        def complete(gateway, request, provider):
            span = self._open("gateway.complete")
            span.attrs["samples"] = request.sample_count
            with self._lock:
                self._request_span[id(request)] = span.id
            try:
                return fn(gateway, request, provider)
            finally:
                with self._lock:
                    del self._request_span[id(request)]
                self._close(span)

        return complete

    @contextmanager
    def stage(self, name: str):
        span = self._open(f"stage.{name}")
        try:
            yield
        finally:
            self._close(span)

    def provider_span(self, request, start: float, end: float) -> None:
        with self._lock:
            parent = self._request_span.get(id(request))
            self.spans.append(Span(next(self._ids), "gateway.provider", start, end,
                                   threading.get_ident(), parent))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "thread": s.thread, "parent": s.parent,
                                     "attrs": s.attrs}) + "\n")


def _set(**fields):
    """on_result hook storing ``fields[key](result)`` under each key."""
    return lambda attrs, result: attrs.update({k: f(result) for k, f in fields.items()})


def install(tracer: Tracer) -> None:
    """Wrap herald's layer boundaries.  Call before the first stage."""
    from herald import augment, datastore, depgraph, ingest, prompts, retrieval, validate
    from herald.gateway import Gateway

    prompt_bytes = _set(bytes=lambda r: len(r.text.encode("utf-8")))
    compiled = _set(ok=lambda r: r.ok, timeout=lambda r: r.diagnostics == ("timeout",))
    targets = [
        (ingest, "parse_jixia_export", "ingest.parse", None),
        (ingest, "serialize_index", "ingest.serialize", None),
        (ingest, "resolve_neighbors", "ingest.neighbors", None),
        (depgraph, "build_graph", "depgraph.build", None),
        (depgraph, "check_acyclic", "depgraph.check_acyclic", None),
        (depgraph, "stratify", "depgraph.stratify", _set(levels=lambda r: len(r.levels))),
        (retrieval, "load_store", "retrieval.load_store", None),
        (retrieval, "embed", "retrieval.embed", None),
        (retrieval, "query_knn", "retrieval.query", None),
        (prompts, "build_statement_context", "prompts.context", None),
        (prompts, "assemble_statement_prompt", "prompts.render", prompt_bytes),
        (prompts, "assemble_proof_prompt", "prompts.render", prompt_bytes),
        (prompts, "assemble_step_prompt", "prompts.render", prompt_bytes),
        (prompts, "summarize_steps_prompt", "prompts.render", prompt_bytes),
        (validate, "validate_item", "validate.item", _set(k=lambda r: r.k)),
        (validate, "_evaluate_candidate", "validate.candidate",
         _set(parse_failure=lambda r: r.nli_parse_failure)),
        (validate, "back_translate", "validate.back_translate", None),
        (validate, "nli_check", "validate.nli", None),
        (validate.ReplBackend, "check", "backend.check", compiled),
        (validate.MockCompilerBackend, "check", "backend.check", compiled),
        (augment, "synthesize_for_index", "augment.synthesize", _set(count=len)),
        (augment, "compile_filter", "augment.compile_filter",
         _set(valid=lambda r: len(r[0]), total=lambda r: len(r[0]) + len(r[1]))),
        (augment, "dedup_sample", "augment.dedup", None),
        (augment, "informal_variants", "augment.variants",
         _set(attempted=lambda r: r.attempted, dropped=lambda r: r.dropped)),
        (datastore, "read_pairs", "datastore.read", None),
        (datastore, "write_pairs_atomic", "datastore.write", _set(records=lambda r: r)),
        (datastore, "mix", "datastore.mix", None),
        (datastore, "stats", "datastore.stats", None),
    ]
    for owner, attr, name, hook in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
    Gateway.complete = tracer.wrap_complete(Gateway.complete)

    init = Gateway.__init__

    @functools.wraps(init)
    def register(gateway, *args, **kwargs):
        init(gateway, *args, **kwargs)
        tracer.gateways.append(gateway)

    Gateway.__init__ = register


# --- per-layer metrics ---------------------------------------------------


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_us_per_call"):
        return "us"
    if metric.endswith("_kb"):
        return "KiB"
    if "ratio" in metric or metric.endswith("concurrency_mean"):
        return "ratio"
    return "count"


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _pct(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _dir_size(root: Path, dirname: str) -> tuple[int, int]:
    files = size = 0
    for d in root.rglob(dirname):
        if d.is_dir():
            for f in d.iterdir():
                files += 1
                size += f.stat().st_size
    return files, size


def layer_metrics(tracer: Tracer, *, wall_s: float, sys_s: float, latency_s: float,
                  max_in_flight: int, out_dir: Path) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced repetition.

    A layer the workload never reaches reads 0.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))

    def self_time(s: Span) -> float:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        return s.duration - _union([iv for iv in clipped if iv[1] > iv[0]])

    def stage_of(s: Span) -> str | None:
        while s is not None:
            if s.name.startswith("stage."):
                return s.name[len("stage."):]
            s = by_id.get(s.parent)
        return None

    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in named.get(name, ()))

    def count(name: str) -> int:
        return len(named.get(name, ()))

    def attr_sum(name_or_spans, key: str) -> float:
        group = named.get(name_or_spans, ()) if isinstance(name_or_spans, str) else name_or_spans
        return sum(s.attrs.get(key, 0) for s in group)

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = total(f"stage.{stage}")
    m["pipeline.self_s"] = sum(self_time(s) for st in STAGES for s in named.get(f"stage.{st}", ()))

    m["ingest.parse_s"] = total("ingest.parse")
    m["ingest.serialize_s"] = total("ingest.serialize")
    m["ingest.neighbors_s"] = total("ingest.neighbors")
    m["ingest.neighbors_calls"] = count("ingest.neighbors")
    m["ingest.neighbors_us_per_call"] = 1e6 * _ratio(m["ingest.neighbors_s"],
                                                     m["ingest.neighbors_calls"])

    m["depgraph.build_s"] = total("depgraph.build")
    m["depgraph.check_acyclic_s"] = total("depgraph.check_acyclic")
    m["depgraph.stratify_s"] = total("depgraph.stratify")
    m["depgraph.levels"] = max((s.attrs["levels"] for s in named.get("depgraph.stratify", ())),
                               default=0)

    m["retrieval.load_store_s"] = total("retrieval.load_store")
    m["retrieval.embed_s"] = total("retrieval.embed")
    m["retrieval.query_s"] = total("retrieval.query")
    m["retrieval.queries"] = count("retrieval.query")
    m["retrieval.query_us_per_call"] = 1e6 * _ratio(m["retrieval.query_s"],
                                                    m["retrieval.queries"])

    m["prompts.context_s"] = sum(self_time(s) for s in named.get("prompts.context", ()))
    m["prompts.render_s"] = total("prompts.render")
    m["prompts.rendered"] = count("prompts.render")
    m["prompts.prompt_kb"] = attr_sum("prompts.render", "bytes") / 1024.0

    completes = named.get("gateway.complete", [])
    providers = named.get("gateway.provider", [])
    samples = attr_sum("gateway.complete", "samples")
    hits = sum(g.stats["cache_hits"] for g in tracer.gateways)
    m["gateway.requests"] = len(completes)
    m["gateway.samples"] = samples
    m["gateway.cache_hits"] = hits
    m["gateway.cache_hit_ratio"] = _ratio(hits, samples)
    m["gateway.retries"] = sum(g.stats["retries"] for g in tracer.gateways)
    m["gateway.self_s"] = sum(self_time(s) for s in completes)
    m["gateway.provider_busy_s"] = sum(s.duration for s in providers)
    m["gateway.concurrency_mean"] = _ratio(m["gateway.provider_busy_s"], wall_s)
    m["gateway.floor_ratio"] = _ratio(len(providers) * latency_s / max_in_flight, wall_s)
    request_ms = [1000.0 * s.duration for s in completes]
    m["gateway.request_ms_p50"] = _pct(request_ms, 50)
    m["gateway.request_ms_p99"] = _pct(request_ms, 99)
    files, size = _dir_size(out_dir, "cache")
    m["gateway.cache_files"] = files
    m["gateway.cache_kb"] = size / 1024.0

    items = named.get("validate.item", [])
    item_ms = [1000.0 * s.duration for s in items]
    checks = [s for s in named.get("backend.check", ()) if stage_of(s) == "validate"]
    check_ms = [1000.0 * s.duration for s in checks]
    m["validate.items"] = len(items)
    m["validate.item_ms_p50"] = _pct(item_ms, 50)
    m["validate.item_ms_p95"] = _pct(item_ms, 95)
    m["validate.samples_drawn"] = attr_sum("validate.item", "k")
    m["validate.candidates_evaluated"] = count("validate.candidate")
    m["validate.sample_use_ratio"] = _ratio(m["validate.candidates_evaluated"],
                                            m["validate.samples_drawn"])
    m["validate.compile_checks"] = len(checks)
    m["validate.compile_busy_s"] = sum(s.duration for s in checks)
    m["validate.compile_ms_p50"] = _pct(check_ms, 50)
    m["validate.compile_pass_ratio"] = _ratio(attr_sum(checks, "ok"), len(checks))
    m["validate.compile_timeouts"] = attr_sum(checks, "timeout")
    m["validate.back_translate_s"] = total("validate.back_translate")
    m["validate.nli_s"] = total("validate.nli")
    m["validate.nli_parse_failures"] = attr_sum("validate.candidate", "parse_failure")

    filtered = named.get("augment.compile_filter", [])
    m["augment.synthesize_s"] = total("augment.synthesize")
    m["augment.synthesized"] = attr_sum("augment.synthesize", "count")
    m["augment.compile_filter_s"] = total("augment.compile_filter")
    m["augment.compile_valid_ratio"] = _ratio(attr_sum(filtered, "valid"),
                                              attr_sum(filtered, "total"))
    m["augment.dedup_s"] = total("augment.dedup")
    m["augment.variants_s"] = total("augment.variants")
    m["augment.variants_attempted"] = attr_sum("augment.variants", "attempted")
    m["augment.variants_dropped"] = attr_sum("augment.variants", "dropped")

    m["datastore.read_s"] = total("datastore.read")
    m["datastore.write_s"] = total("datastore.write")
    m["datastore.mix_s"] = total("datastore.mix")
    m["datastore.stats_s"] = total("datastore.stats")
    m["datastore.records_written"] = attr_sum("datastore.write", "records")

    m["proc.sys_s"] = sys_s
    return {k: float(v) for k, v in m.items()}
