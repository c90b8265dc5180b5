"""Acceptance suite: each criterion at its stated tolerance and budget.

Run ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import closing
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from conftest import (
    ScriptedTranslator,
    benchmark_items,
    compile_check,
    graph_of,
    make_corpus,
    oracle_levels,
    random_dag,
    run_full_pipeline,
    schedule,
    script_benchmark_backend,
    tree_digest,
    validate_one,
    write_shared_fixtures,
)

from herald.augment import dedup_sample, synthesize_from_state, synthesize_for_index
from herald.config import PipelineConfig
from herald.datastore import Provenance, mix, split_by_ratio, write_pairs_atomic
from herald.depgraph import stratify
from herald.gateway import Gateway, MockBackTranslator, MockNliJudge, Role
from herald.ingest import scan_declarations
from herald.records import DeclKind, ProofState
from herald.retrieval import AnnotatedExample, EmbeddingVector, cosine, query_knn
from herald.retrieval import ExampleStore as index_examples
from herald.validate import (
    MockCompilerBackend,
    ReplBackend,
    Roles,
    compose_source,
    summarize,
)


def report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE PASS: {name} ({detail})")


def test_stratification_correctness():
    started = time.monotonic()
    rng = random.Random(20260810)
    checked_edges = 0
    for case in range(1000):
        n = rng.randint(1, 200)
        nodes, edges = random_dag(rng, n, edge_prob=rng.uniform(0.01, 0.2))
        graph = graph_of(nodes, edges)
        assignment = stratify(graph)
        for u, v in edges:
            assert assignment.level_of[u] < assignment.level_of[v]
        checked_edges += len(edges)
        order = [x for batch in schedule(assignment, 1 + case % 16) for x in batch]
        position = {x: i for i, x in enumerate(order)}
        assert len(order) == len(nodes)
        for u, v in edges:
            assert position[u] < position[v]
        if case % 97 == 0:  # independent longest-path oracle, sampled
            assert assignment.level_of == oracle_levels(nodes, edges)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"stratification took {elapsed:.1f}s"
    report(
        "stratification correctness",
        f"1000 DAGs, {checked_edges} edges, {elapsed:.1f}s < 10s",
    )


def test_retrieval_oracle_equivalence():
    started = time.monotonic()
    getcontext().prec = 60
    rng = random.Random(7)
    cosine_checks = 0
    for case in range(500):
        dim = rng.randint(8, 128)
        count = rng.randint(1, 500)
        examples = [
            AnnotatedExample(
                id=f"v{i:04d}",
                formal_text=f"s{i}",
                informal_text=f"t{i}",
                embedding=EmbeddingVector(
                    tuple(rng.gauss(0, 1) for _ in range(dim))
                ),
            )
            for i in range(count)
        ]
        store = index_examples(examples)
        query = EmbeddingVector(tuple(rng.gauss(0, 1) for _ in range(dim)))
        k = rng.randint(1, 20)
        got = query_knn(store, query, k)
        oracle = sorted(
            ((cosine(query, ex.embedding), ex.id) for ex in examples),
            key=lambda t: (-t[0], t[1]),
        )[: min(k, count)]
        assert [(h.score, h.example.id) for h in got] == oracle

        if case % 25 == 0:
            ex = examples[rng.randrange(count)]
            dot = sum(Fraction(a) * Fraction(b) for a, b in zip(query.values, ex.embedding.values))
            nu2 = sum(Fraction(a) ** 2 for a in query.values)
            nv2 = sum(Fraction(b) ** 2 for b in ex.embedding.values)
            ref = (Decimal(dot.numerator) / Decimal(dot.denominator)) / (
                (Decimal(nu2.numerator) / Decimal(nu2.denominator)).sqrt()
                * (Decimal(nv2.numerator) / Decimal(nv2.denominator)).sqrt()
            )
            assert abs(Decimal(cosine(query, ex.embedding)) - ref) < Decimal("1e-9")
            cosine_checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"retrieval took {elapsed:.1f}s"
    report(
        "retrieval oracle equivalence",
        f"500 stores, {cosine_checks} extended-precision cosine checks, {elapsed:.1f}s < 30s",
    )


def test_tactic_augmentation_round_trip():
    index = make_corpus(170)  # yields > 50 tactic proofs
    proof_names = index.tactic_proof_names()
    assert len(proof_names) >= 50
    statements = synthesize_for_index(index)
    assert statements
    for stmt in statements:
        result = scan_declarations(stmt.formal_text)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.kind == DeclKind.THEOREM
        assert rec.full_name == stmt.name

    # binder order equals hypothesis order, checked positionally via types
    import re as _re

    for name in proof_names:
        for step in index.proofs[name]:
            for stmt in synthesize_from_state(step.state_before, name, step.step_index):
                types = _re.findall(
                    r"[(\[]\s*(?:[^:()\[\]]+:\s*)?([^()\[\]]+?)\s*[)\]]", stmt.formal_text
                )
                expected = [t for _, t in step.state_before.hypotheses]
                assert types[: len(expected)] == expected

    state = ProofState(
        hypotheses=(("p", "Prop"), ("q", "Prop"), ("r", "Prop"), ("h", "p ∧ q ∧ r")),
        goals=("q ∧ p ∧ r",),
    )
    [stmt] = synthesize_from_state(state, "ex", 0)
    assert stmt.formal_text == (
        "theorem ex_tac_0 (p : Prop) (q : Prop) (r : Prop) (h : p ∧ q ∧ r) "
        ": q ∧ p ∧ r := by sorry"
    )
    report(
        "tactic augmentation round-trip",
        f"{len(statements)} statements from {len(proof_names)} proofs re-parse; "
        "running-example statement exact",
    )


def test_dedup_sampling():
    rng = random.Random(5)
    for _ in range(200):
        pool_size = rng.randint(0, 400)
        n_original = rng.randint(0, 500)
        pool = list(range(pool_size))
        sampled = dedup_sample(pool, n_original, seed=rng.randint(0, 10**9))
        assert len(sampled) == min(n_original, pool_size)
        assert sampled == sorted(sampled)
        assert len(set(sampled)) == len(sampled)

    pool = list(range(1000))
    runs = 200
    hits = [0] * 1000
    for seed in range(runs):
        for item in dedup_sample(pool, 250, seed=seed):
            hits[item] += 1
    worst = max(abs(count / runs - 0.25) for count in hits)
    assert worst <= 0.05
    report(
        "dedup sampling",
        f"size law on 200 generated cases; max per-item deviation {worst:.4f} <= 0.05",
    )


def test_pass_at_k_semantics(tmp_path):
    items = benchmark_items(20)
    translator = ScriptedTranslator(n_passing=13, k_span=128)
    roles = Roles(
        translator=Role(provider=translator, model_id="scripted"),
        back_translator=Role(provider=MockBackTranslator(), model_id="bt"),
        nli_judge=Role(provider=MockNliJudge(), model_id="nli"),
    )
    backend = MockCompilerBackend(default_ok=False)
    script_benchmark_backend(backend, items, translator, header="import Mathlib\n")
    reports = []
    with closing(Gateway(PipelineConfig(max_in_flight=16), tmp_path)) as gw:
        for item in items:
            reports.append(
                validate_one(
                    item["informal_text"], 128, roles, backend, gw,
                    item_id=item["id"], short_circuit=False,
                )
            )
    summary = summarize(reports, "constructed-20")
    assert summary.succeeded == 13
    assert summary.accuracy == 0.65

    accuracies = []
    for k in (1, 2, 4, 8, 16, 32, 64, 128):
        solved = sum(1 for r in reports if any(c.final for c in r.candidates[:k]))
        accuracies.append(solved / len(reports))
    assert accuracies == sorted(accuracies)
    assert accuracies[-1] == 0.65
    report(
        "pass@k semantics",
        f"accuracy 0.65 exactly at k=128; prefix accuracies {accuracies} nondecreasing",
    )


def test_mixing_ratios(tmp_path):
    rng = random.Random(17)

    def make_pool(n: int, provenance: Provenance):
        from herald.datastore import Direction, NLFLPair

        if provenance == Provenance.GENERAL:
            return [
                NLFLPair(
                    id=f"g{i}", formal_text="", informal_text=f"text {i}",
                    direction=None, provenance=provenance, record_type="instruction",
                )
                for i in range(n)
            ]
        return [
            NLFLPair(
                id=f"{provenance.value}{i}", formal_text=f"f{i}", informal_text=f"i{i}",
                direction=Direction.NL_TO_FL, provenance=provenance,
            )
            for i in range(n)
        ]

    checked = 0
    for case in range(100):
        total = rng.randint(10, 400)
        # pools sized to cover the request
        pools = (
            make_pool(total, Provenance.ORIGINAL),
            make_pool(2 * total, Provenance.TACTIC_AUG),
            make_pool(total, Provenance.INFORMAL_AUG),
            make_pool(total, Provenance.GENERAL),
        )
        records, manifest = mix(*pools, total=total, seed=case)
        assert manifest.total == len(records) == total
        n_nl, n_fl, n_gen = split_by_ratio(total, (2, 2, 1))
        pair_total = n_nl + n_fl
        for value, ideal in zip(
            (manifest.direction_counts["nl_to_fl"],
             manifest.direction_counts["fl_to_nl"],
             manifest.direction_counts["general"]),
            (2 * total / 5, 2 * total / 5, total / 5),
        ):
            assert abs(value - ideal) <= 1
        for key, weight in (("original", 1), ("tactic_aug", 2), ("informal_aug", 1)):
            assert abs(manifest.counts[key] - pair_total * weight / 4) <= 1
        checked += 1

    records, manifest = mix(
        make_pool(200, Provenance.ORIGINAL),
        make_pool(400, Provenance.TACTIC_AUG),
        make_pool(200, Provenance.INFORMAL_AUG),
        make_pool(100, Provenance.GENERAL),
        total=250,
        seed=0,
    )
    path = tmp_path / "dataset.jsonl"
    write_pairs_atomic(records, path)
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
    assert manifest.total == len(lines)
    report(
        "mixing ratios",
        f"{checked} random pool sizes within ±1 per class; manifest total == line count",
    )


def test_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    fixtures = write_shared_fixtures(tmp_path / "fixtures")
    run_full_pipeline(fixtures, tmp_path / "run1")
    run_full_pipeline(fixtures, tmp_path / "run2")
    first = tree_digest(tmp_path / "run1")
    second = tree_digest(tmp_path / "run2")
    assert first == second
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    report(
        "end-to-end determinism",
        f"two runs over a 30-declaration corpus byte-identical "
        f"({len(first)} files, {elapsed:.1f}s < 60s)",
    )


@pytest.mark.skipif(
    not os.environ.get("HERALD_LEAN_REPL_CMD"),
    reason="live proof-checker backend not configured (set HERALD_LEAN_REPL_CMD)",
)
def test_live_backend_smoke():
    backend = ReplBackend(os.environ["HERALD_LEAN_REPL_CMD"].split())
    try:
        good = compile_check(compose_source("theorem t : 1 = 1 := by rfl"), backend, 120000)
        assert good.ok
        bad = compile_check(compose_source("theorem t : := by"), backend, 120000)
        assert not bad.ok
    finally:
        backend.close()
    report("live-backend smoke", "valid statement passes, malformed fails")
