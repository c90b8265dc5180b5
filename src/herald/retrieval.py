"""Embedded exemplar store with exact cosine-similarity k-NN queries.

A query screens the whole store in fixed-point integers, then scores the few
examples that can reach the top k with the same compensated dot product as
:func:`cosine`, so a retrieved score equals ``cosine`` bit for bit.  The
store does once, at construction, everything that does not depend on the
query: it rejects a repeated id, a row of another dimension and a zero row,
so no query meets a row :func:`cosine` would refuse, and it takes each
example's norm and packs its unit-normalised row, rounded to integers, one
dimension per Python int, 64 bits per example.  A query then costs, for
all examples at once, one bigint add per nonzero component of its own and
one multiply per distinct rounded value of those components.  The k-th best
of a strided sample bounds the selection from below, and one more bigint
add-and-mask flags the few examples that can reach the top k: no step walks
every example in Python.
Tie-breaking by ascending id keeps retrieval reproducible across runs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .datastore import check_shape, parse_json, read_jsonl
from .errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    SchemaError,
    ZeroVector,
)

STORE_SCHEMA_VERSION = "1"

# Screening applies where the query's norm and every example's lie in this
# range: no square or product of components can overflow, and all underflow
# together stays below 2^-400 of a unit of roundoff at any practical
# dimension.  Outside it every example is scored exactly.
_SCREEN_MIN, _SCREEN_MAX = 2.0**-300, 2.0**300


def _shifts(dim: int) -> tuple[int, int]:
    """Fixed-point shifts (S, T) of query and example components.

    S + T = 62 - bit_length(dim), so dim·2^(S+T) < 2^62: a sum of dim
    products of integers at most 2^S and 2^T in magnitude, biased by 2^62,
    stays inside a 64-bit field and leaves its top bit clear for the
    selection's add-and-mask.  Splitting the bits evenly minimises the
    screen's rounding error.
    """
    bits = 62 - dim.bit_length()
    return bits - bits // 2, bits // 2


def _stride(n: int, k: int) -> int:
    """Step of the selection's sample of about √(5kn) of n > k fields.

    The sample holds ⌈n/stride⌉ >= isqrt(5kn) >= k fields, as 5kn > k².
    It and the fields flagged from its k-th best, about k·stride, are
    each walked once in Python; √(5kn) balances the two walks' costs.
    """
    return max(1, n // math.isqrt(5 * k * n))


def _dot(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    """Correctly rounded dot product of two equal-length tuples."""
    return math.fsum(map(operator.mul, u, v))


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidInput("embedding must have dim >= 1")
        if not all(map(math.isfinite, self.values)):
            bad = next(x for x in self.values if not math.isfinite(x))
            raise InvalidInput(f"non-finite embedding component: {bad}")

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
    """Immutable collection of annotated examples; concurrent queries are safe.

    ``examples`` is consumed once, so a lazy iterator (as :func:`load_store`
    passes) is never held whole.  The store keeps each example's id and
    texts, its norm, and its embedding components in one ``array("d")``,
    row after row, 8 bytes a component; :attr:`examples` and the results of
    :func:`query_knn` build their :class:`AnnotatedExample` from these on
    demand.  Construction checks every row once, in store order: a repeated
    id raises :class:`DuplicateId`, a row whose dimension differs from the
    first row's :class:`DimensionMismatch` and a zero row
    :class:`ZeroVector`, so a query need check only its own vector.  Where
    every norm lies inside the screened range, construction also packs the
    screen's columns.
    """

    def __init__(self, examples: Iterable[AnnotatedExample]):
        self._ids: list[str] = []
        self._formal: list[str] = []
        self._informal: list[str] = []
        self._components = array("d")
        self._norms = array("d")
        self._dim: int | None = None
        seen: set[str] = set()
        for ex in examples:
            values = ex.embedding.values
            if ex.id in seen:
                raise DuplicateId(f"example id {ex.id!r} appears twice")
            seen.add(ex.id)
            if self._dim is None:
                self._dim = len(values)
            elif len(values) != self._dim:
                raise DimensionMismatch(
                    f"example {ex.id!r} has dim {len(values)}, store has {self._dim}"
                )
            nv = ex.embedding.norm()
            if nv == 0.0:
                raise ZeroVector(f"example {ex.id!r} has a zero embedding")
            self._ids.append(ex.id)
            self._formal.append(ex.formal_text)
            self._informal.append(ex.informal_text)
            self._components.extend(values)
            self._norms.append(nv)
        self._columns: list[int] | None = None
        if self._ids and all(_SCREEN_MIN < nv < _SCREEN_MAX for nv in self._norms):
            self._pack_columns()

    def _row(self, i: int) -> tuple[float, ...]:
        """Example ``i``'s embedding components."""
        return tuple(self._components[i * self._dim:(i + 1) * self._dim])

    def _example(self, i: int, values: tuple[float, ...]) -> AnnotatedExample:
        """Example ``i`` with its :meth:`_row` ``values``.  Construction checked
        the row, so its vector is made without checking it again."""
        vector = object.__new__(EmbeddingVector)
        object.__setattr__(vector, "values", values)
        return AnnotatedExample(self._ids[i], self._formal[i], self._informal[i], vector)

    def _pack_columns(self) -> None:
        """Column j is one int holding W_ij (see :func:`query_knn`) in a
        64-bit field per example i; each query's sum starts at ``_bias``,
        2^62 in every field; ``_ones`` and ``_top_bits`` hold 1 and 2^63 in
        every field.

        |W_ij| <= 2^T, so W_ij + 2^T is packed and the offset subtracted
        back.  Ints and arrays convert in native byte order, so
        ``array("Q")`` reads the fields back in example order.
        """
        shift_s, shift_t = _shifts(self._dim)
        self._query_scale = float(1 << shift_s)
        scale, offset = float(1 << shift_t), 1 << shift_t
        inverses = [1.0 / nv for nv in self._norms]
        ones = int.from_bytes(array("Q", [1]).tobytes() * len(inverses), sys.byteorder)
        components, dim = self._components, self._dim
        self._columns = [
            int.from_bytes(
                array("Q", [round(v * r * scale) + offset
                            for v, r in zip(components[j::dim], inverses)]).tobytes(),
                sys.byteorder,
            )
            - offset * ones
            for j in range(dim)
        ]
        self._ones = ones
        self._bias = ones << 62
        self._top_bits = ones << 63
        # γ_12·2^(S+T), rounded up: the float part of the screen's bound.
        self._float_err = ((13 << (shift_s + shift_t)) >> 53) + 1
        self._half_units = (1 << (shift_s - 1)) + (1 << (shift_t - 1))

    def _screen(self, q: tuple[float, ...], nq: float) -> tuple[int, int]:
        """The packed fields 2^62 + X_i of query ``q`` (norm ``nq``), and E.

        Columns whose P_j are equal are added up first, so a query costs a
        bigint add per nonzero component and a multiply per distinct P_j.
        """
        scale = self._query_scale
        groups: dict[int, int] = {}
        m = 0
        for x, column in zip(q, self._columns):
            if x:
                p = round(x / nq * scale)
                groups[p] = groups[p] + column if p in groups else column
                m += 1
        screen = self._bias
        for p, column in groups.items():
            screen += p * column
        err = (math.isqrt(m - 1) + 1) * self._half_units + 1 + (m + 3) // 4 + self._float_err
        return screen, err

    def _select(self, screen: int, err: int, k: int) -> list[int]:
        """Ascending indices i with U_i >= U_(k) - 2E, U_i the fields of ``screen``.

        A strided sample's k-th best field bounds U_(k) from below; one
        add-and-mask flags every field at or above it less 2E, and the
        exact k-th best and the filter are taken among those few.
        """
        n = self.count
        fields = array("Q", screen.to_bytes(8 * n, sys.byteorder))
        floor = heapq.nlargest(k, fields[:: _stride(n, k)])[-1] - 2 * err
        # Bit 63 of a field of screen + 2^63 - floor is set iff the field
        # is at least floor; 0 < floor and every field < 2^63, so no field
        # carries into the next.  Field i's flag byte is one of bytes 8i to
        # 8i + 7 in either byte order.
        flags = ((screen + ((1 << 63) - floor) * self._ones) & self._top_bits).to_bytes(
            8 * n, sys.byteorder
        )
        flagged = []
        at = flags.find(0x80)
        while at >= 0:
            flagged.append(at >> 3)
            at = flags.find(0x80, at + 8)
        values = [fields[i] for i in flagged]
        floor = heapq.nlargest(k, values)[-1] - 2 * err
        return [i for i, z in zip(flagged, values) if z >= floor]

    @property
    def count(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int | None:
        return self._dim


def query_knn(store: ExampleStore, query: EmbeddingVector, k: int) -> list[ScoredExample]:
    """Exactly min(k, count) results for k >= 1, by descending score, ties by
    ascending id.

    Every example is first screened with an exact integer dot product over
    the query's m nonzero components; the others add exact zeros to
    :func:`cosine`'s sum.  Only examples whose screen is within twice its
    error bound E of the k-th best are scored again with :func:`_dot`, so
    each returned score is the one :func:`cosine` gives.

    The screen works in cosine units scaled by 2^(S+T), S and T from
    :func:`_shifts`.  With p̂_j = fl(q_j/|q|) rounded once per query and
    ŵ_ij = fl(v_ij·fl(1/|v_i|)) once per store, the query's integers are
    P_j = round(p̂_j·2^S) and the store's W_ij = round(ŵ_ij·2^T), and
    example i screens as X_i = Σ_j P_j·W_ij.  The store's packed columns
    make this one sum for all examples at once, and summing first the
    columns whose P_j are equal leaves one bigint add per component and one
    multiply per distinct P_j, an exact regrouping.  The sum starts at 2^62
    in every 64-bit field, and the fields are read back as unsigned
    integers U_i = 2^62 + X_i, compared exactly.

    Let a_j = q_j·v_ij/(|q|·|v_i|) over the computed norms and
    γ_i = i·u/(1 - i·u), u the unit roundoff.  Each computed norm is at
    least (1 - u)² of the exact one, so ‖p̂‖ <= 1 + γ_3, ‖ŵ_i‖ <= 1 + γ_4
    and, by Cauchy–Schwarz, Σ|a_j| <= 1 + γ_4.  As S, T <= 31 leaves
    2^S·γ_4 < 1/2, |P_j| <= 2^S and |W_ij| <= 2^T, so |X_i| <=
    dim·2^(S+T) < 2^62 and every U_i lies in (0, 2^63).
    |X_i - 2^(S+T)·cosine| is at most E = E_q + E_f:

    * Quantisation.  P_j·W_ij - 2^(S+T)·p̂_j·ŵ_ij = 2^S·p̂_j·β + 2^T·ŵ_ij·α
      + α·β with |α|, |β| <= 1/2, so over the m nonzero components (m
      counts components, not distinct P_j) the error is at most
      2^(S-1)·Σ|p̂_j| + 2^(T-1)·Σ|ŵ_ij| + m/4, and Σ|p̂_j|, Σ|ŵ_ij| are at
      most √m·(1 + γ_4).  E_q = ⌈√m⌉·(2^(S-1) + 2^(T-1)) + 1 + ⌈m/4⌉; the
      1 covers the γ_4 share, as ⌈√m⌉·2^max(S,T) < 2^34.
    * Floats.  Σp̂_j·ŵ_ij is Σa_j(1 + θ_3) and the rescore Σa_j(1 + θ_4),
      |θ_i| <= γ_i (a product, fsum, |q|·|v| and the division), so they
      differ by at most (γ_3 + γ_4)(1 + γ_4) <= γ_11; a unit more for
      underflow gives E_f = ⌈γ_12·2^(S+T)⌉.

    An example screened below the k-th best field U_(k) by more than 2E
    scores below k others and cannot be returned, so the rescored set is
    C = {i : U_i >= U_(k) - 2E}.  Every step past p̂ and ŵ is exact integer
    arithmetic, so no summation order enters the bound.

    Selection.  A strided sample of about √(5kn) of the n fields (see
    :func:`_stride`) holds at least k of them, and its k-th best v is at
    most U_(k), as the k-th best of any subset is.  So with F = v - 2E,
    the flagged set {i : U_i >= F} holds C and the k best fields; U_(k) is
    its k-th best, and filtering it by U_(k) - 2E gives C exactly.

    F > 0: by the quantisation step |X_i| <= 2^(S+T)·‖p̂‖·‖ŵ_i‖ + E_q <=
    2^61·(1 + γ_7) + E_q, and E < 2^35 for dim < 2^36, so every U_i
    exceeds 2^60 > 2E.  Adding 2^63 - F < 2^63 to each U_i < 2^63 thus
    carries out of no field and sets a field's top bit exactly where
    U_i >= F; one bigint add-and-mask flags them all, read off with
    ``bytes.find``.
    """
    if store.count == 0:
        return []
    if query.dim != store.dim:
        raise DimensionMismatch(f"query dim {query.dim} vs store dim {store.dim}")
    q = query.values
    nq = query.norm()
    if nq == 0.0:
        raise ZeroVector("cosine undefined for zero vector")

    candidates: Iterable[int] = range(store.count)
    if store.count > k and store._columns is not None and _SCREEN_MIN < nq < _SCREEN_MAX:
        candidates = store._select(*store._screen(q, nq), k)

    ids, norms = store._ids, store._norms
    rows = zip(candidates, map(store._row, candidates))
    keyed = ((-(_dot(q, values) / (nq * norms[i])), ids[i], i, values) for i, values in rows)
    return [
        ScoredExample(store._example(i, values), -neg_score)
        for neg_score, _, i, values in heapq.nsmallest(k, keyed)
    ]


_EXAMPLE = {"id": str, "formal_text": str, "informal_text": str, "embedding": list}


def _example_from_dict(obj: dict) -> AnnotatedExample:
    """A store row; its components are numbers, as ``array("d")`` converts them."""
    check_shape(obj, _EXAMPLE)
    return AnnotatedExample(obj["id"], obj["formal_text"], obj["informal_text"],
                            EmbeddingVector(tuple(array("d", obj["embedding"]))))


def load_store(directory: str | Path) -> ExampleStore:
    directory = Path(directory)
    meta_path = directory / "meta.json"
    try:
        meta = parse_json(meta_path.read_bytes(), str(meta_path))
    except FileNotFoundError:
        raise SchemaError("store meta.json not found", str(directory)) from None
    check_shape(meta, dict, f"{meta_path}: $")
    if meta.get("schema_version") != STORE_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported store schema_version {meta.get('schema_version')!r}", str(meta_path)
        )
    examples_path = directory / "examples.jsonl"
    try:
        store = ExampleStore(read_jsonl(examples_path, _example_from_dict, "example record"))
    except (DuplicateId, DimensionMismatch, ZeroVector) as exc:
        raise SchemaError(f"bad example store: {exc}", str(examples_path)) from exc
    if meta.get("count") != store.count:
        raise SchemaError(f"meta count {meta.get('count')} != {store.count} records",
                          str(meta_path))
    if store.count and meta.get("dim") != store.dim:
        raise SchemaError(f"meta dim {meta.get('dim')} != records' dim {store.dim}",
                          str(meta_path))
    return store


class HashEmbeddingProvider:
    """Deterministic offline embedder: token 1- to 3-grams hashed into
    buckets, with the hash seeded by 0 (the ``s0`` of its name).

    Not a semantic model; it exists so the retrieval path is exercisable
    without network access.  Same text always embeds identically.
    """

    def __init__(self, dim: int = 64):
        self.name = f"hash-{dim}-s0"
        self.dim = dim

    def embed_text(self, text: str) -> EmbeddingVector:
        if not text:
            raise InvalidInput("cannot embed empty text")
        tokens = [token.encode("utf-8") for token in text.split() or [text]]
        dim = self.dim
        buckets = [0.0] * dim
        for n in (1, 2, 3):
            # blake2b streams, so hashing a gram onto a copy of this state
            # gives the digest of f"0\0{n}\0{gram}" hashed whole.
            prefix = hashlib.blake2b(f"0\x00{n}\x00".encode("utf-8"), digest_size=8)
            for gram in map(b" ".join, zip(*(tokens[i:] for i in range(n)))):
                h = prefix.copy()
                h.update(gram)
                buckets[int.from_bytes(h.digest(), "big") % dim] += 1.0
        norm = math.sqrt(_dot(buckets, buckets))
        return EmbeddingVector(tuple(x / norm for x in buckets))


def embed(text: str, provider: HashEmbeddingProvider) -> EmbeddingVector:
    """The query vector of ``text``."""
    return provider.embed_text(text)
