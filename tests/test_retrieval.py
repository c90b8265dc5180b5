"""Exact k-NN store: cosine math against a high-precision reference, oracle
equivalence for queries, and round-trip persistence."""

from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herald.errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ProviderError,
    ZeroVector,
)
from herald.retrieval import (
    AnnotatedExample,
    EmbeddingVector,
    ExampleStore,
    HashEmbeddingProvider,
    cosine,
    embed,
    index_examples,
    load_store,
    query_knn,
    save_store,
)


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
        store = index_examples([])
        assert store.count == 0
        assert query_knn(store, vec(1, 0), k=3) == []

    def test_thousand_examples(self):
        rng = random.Random(1)
        examples = [example(i, [rng.gauss(0, 1) for _ in range(64)]) for i in range(1000)]
        store = index_examples(examples)
        assert store.count == 1000
        assert store.dim == 64

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            index_examples([example(1, [1, 0]), example(1, [0, 1])])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            index_examples([example(1, [1, 0]), example(2, [0, 1, 2])])

    def test_round_trip(self, tmp_path):
        rng = random.Random(5)
        examples = [
            example(i, [rng.uniform(-2, 2) for _ in range(8)], formal=f"∀ x, f{i} x = {i}")
            for i in range(25)
        ]
        store = index_examples(examples)
        save_store(store, tmp_path / "store")
        reopened = load_store(tmp_path / "store")
        assert reopened == store
        assert reopened.examples[3].embedding.values == examples[3].embedding.values

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=2,
            max_size=8,
        ),
        st.text(min_size=1, max_size=30).filter(str.strip),
    )
    def test_round_trip_preserves_every_component(self, values, text):
        import tempfile

        ex = AnnotatedExample(
            id="only", formal_text=text, informal_text=text, embedding=vec(*values)
        )
        with tempfile.TemporaryDirectory() as tmp:
            save_store(index_examples([ex]), tmp)
            [reloaded] = load_store(tmp).examples
        assert reloaded.embedding.values == ex.embedding.values
        assert reloaded.formal_text == text
        assert reloaded.informal_text == text


class TestQueryKnn:
    def test_store_of_one(self):
        store = index_examples([example(1, [0.2, 0.9])])
        [hit] = query_knn(store, vec(1, 1), k=5)
        assert hit.example.id == "ex0001"

    def test_exact_match_scores_one(self):
        store = index_examples([example(1, [3, 4]), example(2, [-1, 2])])
        [hit] = query_knn(store, vec(3, 4), k=1)
        assert hit.example.id == "ex0001"
        assert hit.score == pytest.approx(1.0, abs=1e-9)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(99)
        examples = [example(i, [rng.gauss(0, 1) for _ in range(16)]) for i in range(200)]
        store = index_examples(examples)
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
        store = index_examples(examples)
        hits = query_knn(store, vec(2, 0), k=3)
        assert [h.example.id for h in hits] == ["a", "b", "c"]

    def test_k_larger_than_store(self):
        store = index_examples([example(i, [i + 1, 1]) for i in range(3)])
        assert len(query_knn(store, vec(1, 1), k=50)) == 3

    def test_dim_mismatch(self):
        store = index_examples([example(1, [1, 0])])
        with pytest.raises(DimensionMismatch):
            query_knn(store, vec(1, 0, 0), k=1)

    def test_zero_norm_example_raises_at_query_time(self, tmp_path):
        examples = [example(1, [1, 0]), example(2, [0, 0]), example(3, [0, 1])]
        save_store(index_examples(examples), tmp_path / "store")
        store = load_store(tmp_path / "store")  # loading does not score anything
        with pytest.raises(ZeroVector):
            query_knn(store, vec(1, 1), k=1)

    def test_zero_norm_query_raises(self):
        store = index_examples([example(1, [1, 0])])
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
        store = ExampleStore(examples, dim=3)
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
        [hit] = query_knn(index_examples(examples), vec(1, 1, 1), k=1)
        assert hit.example.id == "a"
        assert hit.score == cosine(vec(1, 1, 1), examples[0].embedding)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_norms_outside_the_screened_range_match_the_oracle(self, scale):
        rng = random.Random(4)
        examples = [example(i, [scale * rng.gauss(0, 1) for _ in range(8)]) for i in range(30)]
        query = vec(*(scale * rng.gauss(0, 1) for _ in range(8)))
        got = query_knn(index_examples(examples), query, k=5)
        oracle = sorted(
            ((cosine(query, ex.embedding), ex.id) for ex in examples),
            key=lambda t: (-t[0], t[1]),
        )[:5]
        assert [(h.score, h.example.id) for h in got] == oracle

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.001, max_value=1000.0))
    def test_ranking_is_scale_invariant(self, seed, scale):
        rng = random.Random(seed)
        dim = rng.randint(2, 12)
        examples = [
            example(i, [rng.gauss(0, 1) or 0.1 for _ in range(dim)]) for i in range(20)
        ]
        store = index_examples(examples)
        query = [rng.gauss(0, 1) for _ in range(dim)]
        if all(abs(x) < 1e-12 for x in query):
            query[0] = 1.0
        base = [h.example.id for h in query_knn(store, vec(*query), k=20)]
        scaled = [h.example.id for h in query_knn(store, vec(*(x * scale for x in query)), k=20)]
        assert base == scaled


class TestEmbed:
    def test_mock_provider_is_deterministic(self):
        provider = HashEmbeddingProvider(dim=64, seed=3)
        a = embed("the quick brown theorem", provider)
        b = embed("the quick brown theorem", provider)
        assert a == b

    def test_mock_provider_normalized(self):
        provider = HashEmbeddingProvider(dim=64)
        for text in ("x", "a longer text with several tokens", "∀ ε > 0"):
            assert embed(text, provider).norm() == pytest.approx(1.0, abs=1e-9)

    def test_different_seeds_differ(self):
        text = "same text"
        assert embed(text, HashEmbeddingProvider(dim=32, seed=0)) != embed(
            text, HashEmbeddingProvider(dim=32, seed=1)
        )

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidInput):
            embed("", HashEmbeddingProvider())

    def test_provider_failure_surfaces_without_partial_writes(self, tmp_path):
        class OutageProvider:
            name = "remote-down"
            dim = 8
            calls = 0

            def embed_text(self, text):
                OutageProvider.calls += 1
                if OutageProvider.calls >= 3:
                    raise ConnectionError("upstream 503")
                return HashEmbeddingProvider(dim=8).embed_text(text)

        provider = OutageProvider()
        store_dir = tmp_path / "store"
        texts = [f"text {i}" for i in range(5)]
        examples = []
        with pytest.raises(ProviderError) as exc:
            for i, text in enumerate(texts):
                examples.append(example(i, embed(text, provider).values))
            save_store(index_examples(examples), store_dir)
        assert "remote-down" in str(exc.value)
        assert not store_dir.exists()
