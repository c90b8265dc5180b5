"""Exact k-NN store: cosine math against a high-precision reference, oracle
equivalence for queries, and round-trip persistence."""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random
import subprocess
import sys
from array import array
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import save_store, store_rows, write_shared_fixtures
from hypothesis import given, settings
from hypothesis import strategies as st

from herald import retrieval
from herald.errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    SchemaError,
    ZeroVector,
)
from herald.retrieval import (
    AnnotatedExample,
    EmbeddingVector,
    ExampleStore,
    HashEmbeddingProvider,
    cosine,
    embed,
    load_store,
    query_knn,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def vec(*values: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(float(v) for v in values))


def reference_cosine(u: EmbeddingVector, v: EmbeddingVector) -> Decimal:
    """Extended-precision oracle: exact rational dot/norms, 60-digit sqrt."""
    getcontext().prec = 60
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(u.values, v.values))
    nu2 = sum(Fraction(a) * Fraction(a) for a in u.values)
    nv2 = sum(Fraction(b) * Fraction(b) for b in v.values)
    denom = (Decimal(nu2.numerator) / Decimal(nu2.denominator)).sqrt() * (
        Decimal(nv2.numerator) / Decimal(nv2.denominator)
    ).sqrt()
    return (Decimal(dot.numerator) / Decimal(dot.denominator)) / denom


def example(i: int, values, formal: str | None = None) -> AnnotatedExample:
    return AnnotatedExample(
        id=f"ex{i:04d}",
        formal_text=formal or f"theorem t{i} : x{i} = x{i}",
        informal_text=f"statement {i} holds",
        embedding=vec(*values),
    )


def write_rows(directory: Path, examples: list[AnnotatedExample]) -> None:
    """A store's files holding ``examples`` as given, unchecked."""
    dim = len(examples[0].embedding.values)
    (directory / "meta.json").write_text(
        json.dumps({"schema_version": "1", "dim": dim, "count": len(examples)}),
        encoding="utf-8",
    )
    (directory / "examples.jsonl").write_text(
        "".join(
            json.dumps({"id": ex.id, "formal_text": ex.formal_text,
                        "informal_text": ex.informal_text,
                        "embedding": list(ex.embedding.values)}) + "\n"
            for ex in examples
        ),
        encoding="utf-8",
    )


class TestCosine:
    def test_identical_unit_vectors(self):
        assert cosine(vec(1, 0, 0), vec(1, 0, 0)) == 1.0

    def test_orthogonal(self):
        assert cosine(vec(1, 0), vec(0, 1)) == 0.0

    def test_45_degrees_against_closed_form(self):
        # 1/sqrt(2), computed independently at high precision
        expected = Decimal(1) / Decimal(2).sqrt()
        assert abs(Decimal(cosine(vec(1, 1), vec(1, 0))) - expected) < Decimal("1e-12")
        assert cosine(vec(1, 1), vec(1, 0)) == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(vec(1, 0), vec(1, 0, 0))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine(vec(0, 0), vec(1, 0))

    def test_random_vectors_near_reference(self):
        rng = random.Random(42)
        for _ in range(100):
            dim = rng.randint(2, 64)
            u = vec(*(rng.uniform(-5, 5) for _ in range(dim)))
            v = vec(*(rng.uniform(-5, 5) for _ in range(dim)))
            got = Decimal(cosine(u, v))
            assert abs(got - reference_cosine(u, v)) < Decimal("1e-9")

    def test_symmetry_is_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            dim = rng.randint(2, 32)
            u = vec(*(rng.uniform(-1, 1) for _ in range(dim)))
            v = vec(*(rng.uniform(-1, 1) for _ in range(dim)))
            assert cosine(u, v) == cosine(v, u)

    def test_self_similarity(self):
        rng = random.Random(9)
        for _ in range(50):
            u = vec(*(rng.uniform(-3, 3) for _ in range(rng.randint(1, 16))) )
            assert cosine(u, u) == pytest.approx(1.0, abs=1e-9)

    def test_nan_rejected_at_construction(self):
        with pytest.raises(InvalidInput):
            vec(float("nan"), 1.0)


class TestStore:
    def test_empty_store_is_valid(self):
        store = ExampleStore([])
        assert store.count == 0
        assert query_knn(store, vec(1, 0), k=3) == []

    def test_thousand_examples(self):
        rng = random.Random(1)
        examples = [example(i, [rng.gauss(0, 1) for _ in range(64)]) for i in range(1000)]
        store = ExampleStore(examples)
        assert store.count == 1000
        assert store.dim == 64

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            ExampleStore([example(1, [1, 0]), example(1, [0, 1])])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ExampleStore([example(1, [1, 0]), example(2, [0, 1, 2])])

    @pytest.mark.parametrize("rows, raised, culprit", [
        ([[1, 0], [1, 0, 0], [0, 0]], DimensionMismatch, "ex0001"),
        ([[1, 0], [0, 0], [1, 0, 0]], ZeroVector, "ex0001"),
        ([[1, 0, 0], [1, 0]], DimensionMismatch, "ex0001"),
        ([[0, 0], [1, 0, 0]], ZeroVector, "ex0000"),
    ], ids=["odd_dim_before_zero_norm", "zero_norm_before_odd_dim",
            "the_first_row_sets_the_dim", "zero_first_row"])
    def test_first_malformed_row_decides_the_error(self, rows, raised, culprit):
        with pytest.raises(raised, match=culprit):
            ExampleStore([example(i, row) for i, row in enumerate(rows)])

    def test_duplicate_id_is_checked_before_the_row(self):
        with pytest.raises(DuplicateId, match="ex0001"):
            ExampleStore([example(1, [1, 0]), example(1, [0, 0, 0])])

    @pytest.mark.parametrize("rows, ids, raised", [
        ([[1, 0], [0, 1]], [1, 1], DuplicateId),
        ([[1, 0], [1, 0, 0]], [0, 1], DimensionMismatch),
        ([[1, 0], [0, 0]], [0, 1], ZeroVector),
    ], ids=["duplicate_id", "odd_dim", "zero_norm"])
    def test_malformed_store_is_a_schema_error_at_load(self, tmp_path, rows, ids, raised):
        write_rows(tmp_path, [example(i, row) for i, row in zip(ids, rows)])
        with pytest.raises(SchemaError, match="examples.jsonl: .*'ex0001'") as err:
            load_store(tmp_path)
        assert isinstance(err.value.__cause__, raised)

    def test_round_trip(self, tmp_path):
        rng = random.Random(5)
        examples = [
            example(i, [rng.uniform(-2, 2) for _ in range(8)], formal=f"∀ x, f{i} x = {i}")
            for i in range(25)
        ]
        store = ExampleStore(examples)
        save_store(store, tmp_path / "store")
        reopened = load_store(tmp_path / "store")
        assert store_rows(reopened) == store_rows(store)
        assert store_rows(reopened)[3].embedding.values == examples[3].embedding.values

    def test_meta_dim_is_checked_only_against_records(self, tmp_path):
        store_dir = tmp_path / "store"
        save_store(ExampleStore([example(1, [1, 0, 2])]), store_dir)
        meta = store_dir / "meta.json"
        meta.write_text('{"schema_version": "1", "dim": 4, "count": 1}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="meta.json: meta dim 4"):
            load_store(store_dir)
        (store_dir / "examples.jsonl").write_text("", encoding="utf-8")
        meta.write_text('{"schema_version": "1", "dim": 4, "count": 0}\n', encoding="utf-8")
        assert load_store(store_dir).count == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=2,
            max_size=8,
        ).filter(lambda values: vec(*values).norm() > 0.0),  # a store holds no zero row
        st.text(min_size=1, max_size=30).filter(str.strip),
    )
    def test_round_trip_preserves_every_component(self, values, text):
        import tempfile

        ex = AnnotatedExample(
            id="only", formal_text=text, informal_text=text, embedding=vec(*values)
        )
        with tempfile.TemporaryDirectory() as tmp:
            save_store(ExampleStore([ex]), tmp)
            [reloaded] = store_rows(load_store(tmp))
        assert reloaded.embedding.values == ex.embedding.values
        assert reloaded.formal_text == text
        assert reloaded.informal_text == text


class TestQueryKnn:
    def test_store_of_one(self):
        store = ExampleStore([example(1, [0.2, 0.9])])
        [hit] = query_knn(store, vec(1, 1), k=5)
        assert hit.example.id == "ex0001"

    def test_exact_match_scores_one(self):
        store = ExampleStore([example(1, [3, 4]), example(2, [-1, 2])])
        [hit] = query_knn(store, vec(3, 4), k=1)
        assert hit.example.id == "ex0001"
        assert hit.score == pytest.approx(1.0, abs=1e-9)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(99)
        examples = [example(i, [rng.gauss(0, 1) for _ in range(16)]) for i in range(200)]
        store = ExampleStore(examples)
        query = vec(*(rng.gauss(0, 1) for _ in range(16)))
        got = query_knn(store, query, k=10)
        # oracle: brute-force full scan and sort with the tie rule
        oracle = sorted(
            ((cosine(query, ex.embedding), ex.id) for ex in examples),
            key=lambda t: (-t[0], t[1]),
        )[:10]
        assert [(h.score, h.example.id) for h in got] == oracle

    def test_ties_break_by_ascending_id(self):
        examples = [
            AnnotatedExample(id=i, formal_text="t", informal_text="s", embedding=vec(1, 0))
            for i in ("b", "a", "c")
        ]
        store = ExampleStore(examples)
        hits = query_knn(store, vec(2, 0), k=3)
        assert [h.example.id for h in hits] == ["a", "b", "c"]

    def test_k_larger_than_store(self):
        store = ExampleStore([example(i, [i + 1, 1]) for i in range(3)])
        assert len(query_knn(store, vec(1, 1), k=50)) == 3

    def test_dim_mismatch(self):
        store = ExampleStore([example(1, [1, 0])])
        with pytest.raises(DimensionMismatch):
            query_knn(store, vec(1, 0, 0), k=1)

    def test_zero_norm_query_raises(self):
        store = ExampleStore([example(1, [1, 0])])
        with pytest.raises(ZeroVector):
            query_knn(store, vec(0, 0), k=1)

    @pytest.mark.parametrize("k", [12, 13, 50])
    def test_direct_store_matches_sorted_cosine_oracle(self, k):
        # Four distinct directions among twelve examples, in shuffled id order,
        # so most scores tie and the id rule decides.
        rng = random.Random(k)
        directions = [[1, 0, 0], [2, -1, 0.5], [-1, 1, 1], [0, 0, -3]]
        examples = [example(i, rng.choice(directions)) for i in range(12)]
        rng.shuffle(examples)
        store = ExampleStore(examples)
        query = vec(1.0, -0.5, 0.25)
        got = query_knn(store, query, k=k)
        oracle = sorted(
            ((cosine(query, ex.embedding), ex.id) for ex in examples),
            key=lambda t: (-t[0], t[1]),
        )
        assert [(h.score, h.example.id) for h in got] == oracle

    def test_tie_that_the_screening_sum_splits_still_breaks_by_id(self):
        # Both dot products are exactly 1 + 2**-52, but summed left to right
        # the first rounds to 1 and the second does not, so the screen ranks
        # "b" ahead by one unit; the exact rescore must still put "a" first.
        tiny = 2.0**-53
        examples = [
            AnnotatedExample(id=i, formal_text="t", informal_text="s", embedding=vec(*values))
            for i, values in (("a", (1.0, tiny, tiny)), ("b", (tiny, tiny, 1.0)),
                              ("c", (0.0, 1.0, 0.0)))
        ]
        [hit] = query_knn(ExampleStore(examples), vec(1, 1, 1), k=1)
        assert hit.example.id == "a"
        assert hit.score == cosine(vec(1, 1, 1), examples[0].embedding)

    def test_tie_that_the_unit_screen_splits_still_breaks_by_id(self):
        # The query's norm is 2, so the screen sums halves of each row's
        # components: exactly half the plain left-to-right sum.  Both dot
        # products are 1 + 2**-52 and both norms round to 1, so the scores
        # tie; the screen ranks "b" ahead by one unit, and a margin any
        # narrower than the bound would drop "a" before the rescore.
        tiny = 2.0**-53
        examples = [
            AnnotatedExample(id=i, formal_text="t", informal_text="s", embedding=vec(*values))
            for i, values in (("a", (1.0, tiny, tiny, 0.0)), ("b", (tiny, tiny, 1.0, 0.0)),
                              ("c", (0.0, 1.0, 0.0, 0.0)))
        ]
        query = vec(1, 1, 1, 1)
        [hit] = query_knn(ExampleStore(examples), query, k=1)
        assert hit.example.id == "a"
        assert hit.score == cosine(query, examples[0].embedding) == cosine(
            query, examples[1].embedding
        )

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_norms_outside_the_screened_range_match_the_oracle(self, scale):
        rng = random.Random(4)
        examples = [example(i, [scale * rng.gauss(0, 1) for _ in range(8)]) for i in range(30)]
        query = vec(*(scale * rng.gauss(0, 1) for _ in range(8)))
        got = query_knn(ExampleStore(examples), query, k=5)
        oracle = sorted(
            ((cosine(query, ex.embedding), ex.id) for ex in examples),
            key=lambda t: (-t[0], t[1]),
        )[:5]
        assert [(h.score, h.example.id) for h in got] == oracle

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_screen_matches_sorted_cosine_oracle_bit_for_bit(self, data):
        dim = data.draw(st.integers(1, 10), label="dim")
        magnitude = st.one_of(st.floats(0.001, 8.0), st.sampled_from([0.5, 1.0, 2.0]))

        def vector(zeros):
            return [
                0.0 if zero else data.draw(magnitude) * data.draw(st.sampled_from([1.0, -1.0]))
                for zero in zeros
            ]

        def zero_pattern():
            zeros = data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
            if all(zeros):
                zeros[data.draw(st.integers(0, dim - 1))] = False
            return zeros

        # Examples repeat rows of a small pool, so scores tie and the id rule decides.
        pool = [vector(zero_pattern()) for _ in range(data.draw(st.integers(1, 8)))]
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
        examples = [example(i, row) for i, row in enumerate(rows)]
        data.draw(st.randoms(use_true_random=False)).shuffle(examples)
        shape = data.draw(st.sampled_from(["one nonzero", "none zero", "random zeros"]))
        if shape == "one nonzero":
            j = data.draw(st.integers(0, dim - 1))
            zeros = [i != j for i in range(dim)]
        else:
            zeros = [False] * dim if shape == "none zero" else zero_pattern()
        query = vec(*vector(zeros))
        k = data.draw(st.sampled_from([1, 3, len(examples)]), label="k")

        got = query_knn(ExampleStore(examples), query, k=k)
        oracle = sorted(
            ((cosine(query, ex.embedding), ex.id) for ex in examples),
            key=lambda t: (-t[0], t[1]),
        )[:k]
        assert [(h.score.hex(), h.example.id) for h in got] == [
            (score.hex(), i) for score, i in oracle
        ]

    def test_screen_rescores_a_few_examples_per_query(self, monkeypatch):
        # Deterministic guard on the screen's pruning: a 500 x 64 Gaussian
        # store queried with hashed signatures at k = 1.  Scoring every
        # example exactly would rescore 500 per query.
        rng = random.Random(500)
        store = ExampleStore(
            [example(i, [rng.gauss(0, 1) for _ in range(64)]) for i in range(500)]
        )
        provider = HashEmbeddingProvider(dim=64)
        vocabulary = [f"x{i}" for i in range(150)] + ["∀", ":", "=", "→", "+", "*", "(", ")"]
        rescored = []
        exact_dot = retrieval._dot

        def counting_dot(u, v):
            if u is not v:  # the query's own norm is _dot(q, q)
                rescored[-1] += 1
            return exact_dot(u, v)

        monkeypatch.setattr(retrieval, "_dot", counting_dot)
        for _ in range(100):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(6, 16)))
            rescored.append(0)
            query_knn(store, embed(text, provider), k=1)
        assert max(rescored) <= 3, rescored

    def test_screen_rescores_a_few_examples_per_query_at_5000(self, monkeypatch):
        # The same guard on a store ten times larger: scoring every example
        # exactly would rescore 5000 per query.
        rng = random.Random(5000)
        store = ExampleStore(
            [example(i, [rng.gauss(0, 1) for _ in range(64)]) for i in range(5000)]
        )
        provider = HashEmbeddingProvider(dim=64)
        vocabulary = [f"x{i}" for i in range(150)] + ["∀", ":", "=", "→", "+", "*", "(", ")"]
        rescored = []
        exact_dot = retrieval._dot

        def counting_dot(u, v):
            if u is not v:
                rescored[-1] += 1
            return exact_dot(u, v)

        monkeypatch.setattr(retrieval, "_dot", counting_dot)
        for _ in range(100):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(6, 16)))
            rescored.append(0)
            query_knn(store, embed(text, provider), k=1)
        assert max(rescored) <= 3, rescored

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.001, max_value=1000.0))
    def test_ranking_is_scale_invariant(self, seed, scale):
        rng = random.Random(seed)
        dim = rng.randint(2, 12)
        examples = [
            example(i, [rng.gauss(0, 1) or 0.1 for _ in range(dim)]) for i in range(20)
        ]
        store = ExampleStore(examples)
        query = [rng.gauss(0, 1) for _ in range(dim)]
        if all(abs(x) < 1e-12 for x in query):
            query[0] = 1.0
        base = [h.example.id for h in query_knn(store, vec(*query), k=20)]
        scaled = [h.example.id for h in query_knn(store, vec(*(x * scale for x in query)), k=20)]
        assert base == scaled


def sorted_cosine_oracle(examples, query, k):
    return [
        (score.hex(), i)
        for score, i in sorted(
            ((cosine(query, ex.embedding), ex.id) for ex in examples),
            key=lambda t: (-t[0], t[1]),
        )[:k]
    ]


def unpack(screen, count):
    """The 64-bit fields of a packed screen, in example order."""
    return list(array("Q", screen.to_bytes(8 * count, sys.byteorder)))


def hits(store, query, k):
    return [(h.score.hex(), h.example.id) for h in query_knn(store, query, k=k)]


class TestIntegerScreenEdges:
    """The fixed-point screen at the limits of its integers, against the
    sorted-``cosine`` oracle bit for bit."""

    @pytest.mark.parametrize("dim", [1, 3, 127, 1023])
    def test_largest_dim_for_its_shifts(self, dim):
        # dim + 1 has one more bit, so it gets smaller shifts: no dim with
        # these shifts packs more products into a field.  Each row holds a
        # single component ±|v|, so its W is ±2^T, and the query's
        # components share one magnitude, so every P_j is nonzero and as
        # large as all of them can be at once.
        s, t = retrieval._shifts(dim)
        assert dim << (s + t) < 1 << 62 <= (dim + 1) << (s + t)
        assert sum(retrieval._shifts(dim + 1)) == s + t - 1
        rng = random.Random(dim)
        rows = []
        for i in range(40):
            row = [0.0] * dim
            row[rng.randrange(dim)] = rng.choice([-1.0, 1.0]) * rng.choice([0.5, 3.0, 1e-3])
            rows.append(row)
        examples = [example(i, row) for i, row in enumerate(rows)]
        store = ExampleStore(examples)
        magnitude = rng.choice([0.25, 7.0])
        query = vec(*(rng.choice([-magnitude, magnitude]) for _ in range(dim)))
        for k in (1, 5):
            assert hits(store, query, k) == sorted_cosine_oracle(examples, query, k)
        # The selection's add-and-mask carries out of no field: for every
        # floor from the least field less 2E up to the largest field, each
        # field of the sum is the field plus 2^63 - floor.
        screen, err = store._screen(query.values, query.norm())
        fields = unpack(screen, len(examples))
        for floor in (min(fields) - 2 * err, *fields):
            assert floor > 0
            total = screen + ((1 << 63) - floor) * store._ones
            assert unpack(total, len(examples)) == [z + (1 << 63) - floor for z in fields]

    @pytest.mark.parametrize("seed", range(6))
    def test_near_ties_finer_than_the_screen(self, seed):
        # Rows that differ from one base row by up to 2^-30 of each
        # component, as much as the screen rounds at these dims (S and T
        # are 28 to 30), so the screen ranks them in an order of its own.
        # Without the margin 2E the true best is often not rescored.
        rng = random.Random(seed)
        dim = rng.randint(2, 16)
        base = [rng.gauss(0, 1) for _ in range(dim)]
        rows = [[x * (1 + rng.uniform(-1, 1) * 2.0**-30) for x in base] for _ in range(60)]
        rows += [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(20)]
        examples = [example(i, row) for i, row in enumerate(rows)]
        rng.shuffle(examples)
        store = ExampleStore(examples)
        for _ in range(20):
            query = vec(*(x + rng.gauss(0, 0.5) for x in base))
            for k in (1, 3):
                assert hits(store, query, k) == sorted_cosine_oracle(examples, query, k)

    def test_all_negative_query(self):
        rng = random.Random(21)
        examples = [example(i, [rng.gauss(0, 1) for _ in range(16)]) for i in range(200)]
        query = vec(*(-abs(rng.gauss(0, 1)) for _ in range(16)))
        store = ExampleStore(examples)
        for k in (1, 4):
            assert hits(store, query, k) == sorted_cosine_oracle(examples, query, k)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_nonzero_component(self, sign):
        # Many examples share the component's value, so scores tie.
        rng = random.Random(17)
        examples = [
            example(i, [rng.choice([0.0, 1.0, -2.0, 0.5]) for _ in range(8)]) for i in range(120)
        ]
        examples = [ex for ex in examples if any(ex.embedding.values)]
        query = vec(*(sign * 3.0 if j == 5 else 0.0 for j in range(8)))
        store = ExampleStore(examples)
        for k in (1, 7):
            assert hits(store, query, k) == sorted_cosine_oracle(examples, query, k)

    @pytest.mark.parametrize("extra", [0, 1, 20])
    def test_k_at_least_count(self, extra):
        rng = random.Random(extra)
        examples = [example(i, [rng.gauss(0, 1) for _ in range(12)]) for i in range(30)]
        query = vec(*(rng.gauss(0, 1) for _ in range(12)))
        k = len(examples) + extra
        assert hits(ExampleStore(examples), query, k) == sorted_cosine_oracle(
            examples, query, k
        )


def gaussian_store(count, dim, seed):
    rng = random.Random(seed)
    return [example(i, [rng.gauss(0, 1) for _ in range(dim)]) for i in range(count)]


def near_ties(count, dim, seed):
    """Rows within 2^-30 of each component of one of two base rows, finer
    than the screen resolves."""
    rng = random.Random(seed)
    bases = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(2)]
    return [
        example(i, [x * (1 + rng.uniform(-1, 1) * 2.0**-30) for x in rng.choice(bases)])
        for i in range(count)
    ]


def hashed_queries(count, seed, dim=64):
    """Embeddings of signature-like texts, as informalize queries the store."""
    rng = random.Random(seed)
    provider = HashEmbeddingProvider(dim=dim)
    vocabulary = [f"x{i}" for i in range(150)] + ["∀", ":", "=", "→", "+", "*", "(", ")"]
    return [
        embed(" ".join(rng.choice(vocabulary) for _ in range(rng.randint(6, 16))), provider)
        for _ in range(count)
    ]


class TestSelection:
    """The sample-bounded selection rescores exactly {i : U_i >= U_(k) - 2E}
    of the screen's fields U_i, and returns what sorted cosines give."""

    @staticmethod
    def check(monkeypatch, examples, query, k):
        store = ExampleStore(examples)
        q, nq = query.values, query.norm()
        screen, err = store._screen(q, nq)
        # The grouped screen is the plain sum of P_j times column j.
        scale = store._query_scale
        assert screen == store._bias + sum(
            round(x / nq * scale) * column for x, column in zip(q, store._columns)
        )
        fields = unpack(screen, len(examples))
        kth = sorted(fields, reverse=True)[k - 1]
        wanted = [i for i, z in enumerate(fields) if z >= kth - 2 * err]
        # Each row the store hands out is tagged with its index, so the
        # rows _dot scores are recorded by index.
        rescored = []
        exact_dot, exact_row = retrieval._dot, ExampleStore._row
        rows = {}

        def tagged_row(self, i):
            row = exact_row(self, i)
            rows[id(row)] = (i, row)  # holding the row keeps its id unique
            return row

        def recording_dot(u, v):
            if u is not v:  # the query's own norm is _dot(q, q)
                rescored.append(rows[id(v)][0])
            return exact_dot(u, v)

        monkeypatch.setattr(ExampleStore, "_row", tagged_row)
        monkeypatch.setattr(retrieval, "_dot", recording_dot)
        got = hits(store, query, k)
        monkeypatch.setattr(retrieval, "_dot", exact_dot)
        monkeypatch.setattr(ExampleStore, "_row", exact_row)
        assert sorted(rescored) == wanted
        assert got == sorted_cosine_oracle(examples, query, k)
        return wanted

    def test_error_bound_counts_components_not_groups(self):
        # E grows with the m nonzero components of the query, however few
        # distinct P_j the grouped screen multiplies them by.
        store = ExampleStore(gaussian_store(50, 26, 26))
        one_value = vec(*[1.0] * 26)
        distinct = vec(*(1.0 + j / 26 for j in range(26)))
        single = vec(*[1.0] + [0.0] * 25)
        _, err_one_value = store._screen(one_value.values, one_value.norm())
        _, err_distinct = store._screen(distinct.values, distinct.norm())
        _, err_single = store._screen(single.values, single.norm())
        assert err_one_value == err_distinct > err_single

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_store_one_larger_than_k(self, monkeypatch, k):
        # The sample is the whole store, so its k-th best is U_(k) itself
        # and only the margin 2E keeps the near ties.
        for examples in (gaussian_store(k + 1, 12, k), near_ties(k + 1, 12, k)):
            for query in hashed_queries(10, k, dim=12):
                self.check(monkeypatch, examples, query, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 25, 60])
    def test_sample_is_never_shorter_than_k(self, k):
        for count in range(k + 1, 60 * k + 200):
            assert len(range(0, count, retrieval._stride(count, k))) >= k, count

    @pytest.mark.parametrize("k", [1, 5])
    def test_every_field_equal(self, monkeypatch, k):
        # Ties span the sample, so every example is flagged and rescored.
        examples = [example(i, [0.5, -2.0, 1.0, 3.0]) for i in range(300)]
        random.Random(k).shuffle(examples)
        wanted = self.check(monkeypatch, examples, vec(1.0, 0.25, -3.0, 0.5), k)
        assert len(wanted) == len(examples)

    @pytest.mark.parametrize("k", [1, 4])
    def test_floor_below_zero_cosine(self, monkeypatch, k):
        # Positive rows against an all-negative query: every cosine, and so
        # the floor, lies below the screen's zero of 2^62.
        rng = random.Random(k)
        examples = [example(i, [abs(rng.gauss(0, 1)) for _ in range(16)]) for i in range(400)]
        query = vec(*(-abs(rng.gauss(0, 1)) for _ in range(16)))
        store = ExampleStore(examples)
        screen, _ = store._screen(query.values, query.norm())
        assert max(unpack(screen, len(examples))) < 1 << 62
        self.check(monkeypatch, examples, query, k)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_duplicated_rows(self, monkeypatch, k):
        rng = random.Random(k)
        pool = [[rng.gauss(0, 1) for _ in range(32)] for _ in range(15)]
        examples = [example(i, rng.choice(pool)) for i in range(600)]
        for query in hashed_queries(10, k, dim=32):
            self.check(monkeypatch, examples, query, k)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_near_duplicated_rows(self, monkeypatch, k):
        # Fields within 2E of each other but not equal, in a store large
        # enough to be sampled.
        examples = near_ties(600, 16, k)
        for query in hashed_queries(10, k, dim=16):
            self.check(monkeypatch, examples, query, k)

    def test_hashed_queries_on_a_gaussian_store(self, monkeypatch):
        examples = gaussian_store(700, 64, 7)
        for k in (1, 4):
            for query in hashed_queries(15, k):
                self.check(monkeypatch, examples, query, k)

    def test_no_python_pass_over_the_whole_store(self, monkeypatch):
        # Guard against a per-example Python pass: no heapq call made by a
        # screened query sees an iterable as long as the 5000-example store.
        examples = gaussian_store(5000, 64, 5000)
        store = ExampleStore(examples)
        longest = []

        def measured(select):
            def wrapper(k, iterable, *args, **kwargs):
                items = list(iterable)
                longest.append(len(items))
                return select(k, items, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            retrieval,
            "heapq",
            SimpleNamespace(nlargest=measured(heapq.nlargest), nsmallest=measured(heapq.nsmallest)),
        )
        for k in (1, 4, 16):
            for query in hashed_queries(10, k):
                assert len(query_knn(store, query, k)) == k
        assert longest and max(longest) < len(examples) // 4, max(longest)


def test_herald_never_imports_numpy(tmp_path):
    # numpy is installed but not a dependency; importing it would cost
    # every stage about 12 MiB of RSS.  Load a store, query it, then informalize
    # a small corpus with retrieval, all in a fresh interpreter.
    write_shared_fixtures(tmp_path)
    script = """
import sys
from pathlib import Path
from herald import pipeline, retrieval
from herald.config import PipelineConfig

root = Path(sys.argv[1])
store = retrieval.load_store(root / "store")
query = retrieval.embed("theorem t : a = a", retrieval.HashEmbeddingProvider(dim=store.dim))
assert len(retrieval.query_knn(store, query, 2)) == 2
config = PipelineConfig(example_store=root / "store")
pipeline.run_informalize(pipeline.load_index(root / "corpus.json"), config, root / "out")
assert (root / "out" / "statements_level_0.jsonl").exists()
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestEmbed:
    def test_mock_provider_is_deterministic(self):
        provider = HashEmbeddingProvider(dim=64)
        a = embed("the quick brown theorem", provider)
        b = embed("the quick brown theorem", provider)
        assert a == b

    def test_mock_provider_normalized(self):
        provider = HashEmbeddingProvider(dim=64)
        for text in ("x", "a longer text with several tokens", "∀ ε > 0"):
            assert embed(text, provider).norm() == pytest.approx(1.0, abs=1e-9)

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidInput):
            embed("", HashEmbeddingProvider())

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.text(min_size=1), st.text(" \t\n\r\x0b\x0c\x1c\x85\xa0\u3000", min_size=1)),
        st.sampled_from([1, 7, 64, 1000]),
    )
    def test_embedding_matches_hashing_each_gram_whole(self, text, dim):
        # The reference hashes f"0\0{n}\0{gram}" (seed 0, 1- to 3-grams) from
        # scratch per gram; the provider continues a per-n prefix state,
        # which blake2b's streaming makes the same digest.
        tokens = text.split() or [text]
        buckets = [0.0] * dim
        for n in (1, 2, 3):
            for i in range(len(tokens) - n + 1):
                gram = " ".join(tokens[i : i + n])
                h = hashlib.blake2b(
                    f"0\x00{n}\x00{gram}".encode("utf-8"), digest_size=8
                ).digest()
                buckets[int.from_bytes(h, "big") % dim] += 1.0
        norm = math.sqrt(math.fsum(x * x for x in buckets))
        provider = HashEmbeddingProvider(dim=dim)
        assert provider.name == f"hash-{dim}-s0"
        assert [x.hex() for x in provider.embed_text(text).values] == [
            (x / norm).hex() for x in buckets
        ]
