"""Embedded exemplar store with exact cosine-similarity k-NN queries.

A query screens every example with a plain float dot product, then scores
the few that can reach the top k with the same compensated dot product as
:func:`cosine`, so a retrieved score equals ``cosine`` bit for bit.  The
store computes each example's norm once, at construction; a query computes
its own norm once and keeps the top k on a heap, building results only for
the winners.  Tie-breaking by ascending id keeps retrieval reproducible
across runs.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

from .datastore import read_jsonl
from .errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ProviderError,
    SchemaError,
    ZeroVector,
)

STORE_SCHEMA_VERSION = "1"

_UNIT_ROUNDOFF = 2.0**-53
# Screening applies where |q|·|v| lies in this range for every example: no
# product of components can overflow, and underflow stays far below a unit of
# roundoff.  Outside it every example is scored exactly.
_SCREEN_MIN, _SCREEN_MAX = 2.0**-500, 2.0**500


def _dot(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    """Correctly rounded dot product of two equal-length tuples."""
    return math.fsum(map(operator.mul, u, v))


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidInput("embedding must have dim >= 1")
        for x in self.values:
            if not math.isfinite(x):
                raise InvalidInput(f"non-finite embedding component: {x}")

    @property
    def dim(self) -> int:
        return len(self.values)

    def norm(self) -> float:
        return math.sqrt(_dot(self.values, self.values))


@dataclass(frozen=True)
class AnnotatedExample:
    """One manually annotated formal/informal pair with its embedding."""

    id: str
    formal_text: str
    informal_text: str
    embedding: EmbeddingVector

    def __post_init__(self):
        if not self.id:
            raise InvalidInput("empty example id")
        if not self.formal_text or not self.informal_text:
            raise InvalidInput(f"example {self.id}: both texts must be non-empty")


@dataclass(frozen=True)
class ScoredExample:
    example: AnnotatedExample
    score: float


def cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """dot(u, v) / (|u| * |v|), accumulated with compensated summation."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"dims {u.dim} vs {v.dim}")
    nu = u.norm()
    nv = v.norm()
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero vector")
    return _dot(u.values, v.values) / (nu * nv)


class ExampleStore:
    """Immutable collection of annotated examples; concurrent queries are safe."""

    def __init__(self, examples: list[AnnotatedExample], dim: int | None):
        self._examples = list(examples)
        self._dim = dim
        self._norms = [ex.embedding.norm() for ex in self._examples]
        self._norm_range = (min(self._norms, default=0.0), max(self._norms, default=0.0))

    @property
    def count(self) -> int:
        return len(self._examples)

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def examples(self) -> list[AnnotatedExample]:
        return list(self._examples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExampleStore):
            return NotImplemented
        return self._dim == other._dim and self._examples == other._examples


def index_examples(examples: list[AnnotatedExample]) -> ExampleStore:
    """Build a store, checking id uniqueness and dimension consistency."""
    seen: set[str] = set()
    dim: int | None = None
    for ex in examples:
        if ex.id in seen:
            raise DuplicateId(ex.id)
        seen.add(ex.id)
        if dim is None:
            dim = ex.embedding.dim
        elif ex.embedding.dim != dim:
            raise DimensionMismatch(
                f"example {ex.id} has dim {ex.embedding.dim}, store has {dim}"
            )
    return ExampleStore(examples, dim)


def query_knn(store: ExampleStore, query: EmbeddingVector, k: int) -> list[ScoredExample]:
    """Exactly min(k, count) results by descending score, ties by ascending id.

    Every example is first screened with a plain float dot product.  Only
    those whose screened score is within twice its error bound of the k-th
    best are scored again with :func:`_dot`, so each returned score is the
    one :func:`cosine` gives.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if store.count == 0:
        return []
    if store.dim is not None and query.dim != store.dim:
        raise DimensionMismatch(f"query dim {query.dim} vs store dim {store.dim}")
    q = query.values
    n = len(q)
    nq = query.norm()
    screened = []
    for ex, nv in zip(store._examples, store._norms):
        # Same checks, in the same order, as cosine(query, example).
        v = ex.embedding.values
        if len(v) != n:
            raise DimensionMismatch(f"dims {n} vs {len(v)}")
        if nq == 0.0 or nv == 0.0:
            raise ZeroVector("cosine undefined for zero vector")
        screened.append(sum(map(operator.mul, q, v)) / (nq * nv))

    candidates: Iterable[int] = range(len(screened))
    smallest, largest = store._norm_range
    if len(screened) > k and _SCREEN_MIN < nq * smallest and nq * largest < _SCREEN_MAX:
        # The plain sum of n products is off from the compensated one by at
        # most γ_n·|q|·|v|; five more units of roundoff cover the rounded
        # norms, the two divisions and any underflowed product, so no score
        # moves by more than `err`.  An example screened below the k-th best
        # by more than 2·err scores below k others and cannot be returned.
        m = (n + 5) * _UNIT_ROUNDOFF
        err = m / (1.0 - m)
        floor = heapq.nlargest(k, screened)[-1] - 2.0 * err
        candidates = [i for i, score in enumerate(screened) if score >= floor]

    examples, norms = store._examples, store._norms
    keyed = (
        (-(_dot(q, examples[i].embedding.values) / (nq * norms[i])), examples[i].id, i)
        for i in candidates
    )
    return [
        ScoredExample(examples[i], -neg_score) for neg_score, _, i in heapq.nsmallest(k, keyed)
    ]


def save_store(store: ExampleStore, directory: str | Path) -> None:
    """Persist as meta.json + examples.jsonl under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "schema_version": STORE_SCHEMA_VERSION,
        "dim": store.dim,
        "count": store.count,
    }
    (directory / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    with open(directory / "examples.jsonl", "w", encoding="utf-8") as fh:
        for ex in store.examples:
            fh.write(
                json.dumps(
                    {
                        "id": ex.id,
                        "formal_text": ex.formal_text,
                        "informal_text": ex.informal_text,
                        "embedding": list(ex.embedding.values),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def _example_from_dict(obj: dict) -> AnnotatedExample:
    return AnnotatedExample(
        id=obj["id"],
        formal_text=obj["formal_text"],
        informal_text=obj["informal_text"],
        embedding=EmbeddingVector(tuple(float(x) for x in obj["embedding"])),
    )


def load_store(directory: str | Path) -> ExampleStore:
    directory = Path(directory)
    try:
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError("store meta.json not found", str(directory)) from None
    if meta.get("schema_version") != STORE_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported store schema_version {meta.get('schema_version')!r}",
            str(directory / "meta.json"),
        )
    store = index_examples(
        list(read_jsonl(directory / "examples.jsonl", _example_from_dict, "example record"))
    )
    if meta.get("count") != store.count:
        raise SchemaError(
            f"meta count {meta.get('count')} != {store.count} records",
            str(directory / "meta.json"),
        )
    return store


class EmbeddingProvider(Protocol):
    name: str
    dim: int

    def embed_text(self, text: str) -> EmbeddingVector: ...


class HashEmbeddingProvider:
    """Deterministic offline embedder: token n-grams hashed into buckets.

    Not a semantic model; it exists so the retrieval path is exercisable
    without network access.  Same text always embeds identically.
    """

    def __init__(self, dim: int = 64, seed: int = 0, max_ngram: int = 3):
        if dim < 1:
            raise InvalidInput(f"dim must be >= 1, got {dim}")
        self.name = f"hash-{dim}-s{seed}"
        self.dim = dim
        self.seed = seed
        self.max_ngram = max_ngram

    def embed_text(self, text: str) -> EmbeddingVector:
        if not text:
            raise InvalidInput("cannot embed empty text")
        tokens = text.split() or [text]
        buckets = [0.0] * self.dim
        for n in range(1, self.max_ngram + 1):
            for i in range(len(tokens) - n + 1):
                gram = " ".join(tokens[i : i + n])
                h = hashlib.blake2b(
                    f"{self.seed}\x00{n}\x00{gram}".encode("utf-8"), digest_size=8
                ).digest()
                buckets[int.from_bytes(h, "big") % self.dim] += 1.0
        norm = math.sqrt(math.fsum(x * x for x in buckets))
        return EmbeddingVector(tuple(x / norm for x in buckets))


def embed(text: str, provider: EmbeddingProvider) -> EmbeddingVector:
    """Embed ``text`` with the provider; failures surface as ProviderError."""
    if not text:
        raise InvalidInput("cannot embed empty text")
    try:
        vec = provider.embed_text(text)
    except (InvalidInput, ProviderError):
        raise
    except Exception as exc:
        raise ProviderError(getattr(provider, "name", "?"), str(exc)) from exc
    if vec.dim != provider.dim:
        raise ProviderError(
            provider.name, f"declared dim {provider.dim} but returned {vec.dim}"
        )
    return vec
