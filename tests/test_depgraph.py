"""Dependency graph construction, cycle detection, stratification, scheduling."""

from __future__ import annotations

import random

import pytest
from conftest import corpus_name, graph_of, make_corpus, oracle_levels, random_dag, schedule
from hypothesis import given, settings
from hypothesis import strategies as st

from herald.depgraph import (
    build_graph,
    check_acyclic,
    outside_dependencies,
    stratify,
    to_dot,
)
from herald.errors import CycleError, InvalidInput
from herald.records import CorpusIndex, DeclarationRecord, DeclKind


def decl(name: str, deps=()) -> DeclarationRecord:
    return DeclarationRecord(
        full_name=name,
        kind=DeclKind.THEOREM,
        signature=f"theorem {name} : True",
        docstring=None,
        namespace_path=(),
        file_path="f.lean",
        line_span=(1, 1),
        dependencies=frozenset(deps),
        is_tactic_proof=False,
    )


class TestBuildGraph:
    def test_single_node_no_edges(self):
        index = CorpusIndex(declarations={"A": decl("A")})
        g = build_graph(index)
        assert g.prerequisites == {"A": ()}

    def test_one_dependency_one_edge(self):
        index = CorpusIndex(declarations={"A": decl("A"), "B": decl("B", ["A"])})
        g = build_graph(index)
        assert g.prerequisites == {"A": (), "B": ("A",)}

    def test_unresolved_dependencies_counted(self):
        index = CorpusIndex(declarations={"A": decl("A", ["Missing.x"])})
        g = build_graph(index)
        assert g.prerequisites == {"A": ()}
        assert g.unresolved_count == 1
        assert list(outside_dependencies(index)) == [("A", "Missing.x")]

    def test_fixture_prerequisites_match_enumeration(self):
        index = make_corpus(50)
        g = build_graph(index)
        # oracle: direct enumeration over the fixture
        expected = {
            name: {dep for dep in rec.dependencies if dep in index.declarations}
            for name, rec in index.declarations.items()
        }
        assert {name: set(ps) for name, ps in g.prerequisites.items()} == expected
        assert all(len(set(ps)) == len(ps) for ps in g.prerequisites.values())
        unresolved = sum(
            1
            for rec in index.declarations.values()
            for dep in rec.dependencies
            if dep not in index.declarations
        )
        assert g.unresolved_count == unresolved
        assert len(list(outside_dependencies(index))) == unresolved


class TestCheckAcyclic:
    def test_empty_graph_ok(self):
        check_acyclic(graph_of([], []))

    def test_two_cycle_witness(self):
        with pytest.raises(CycleError) as exc:
            check_acyclic(graph_of(["A", "B"], [("A", "B"), ("B", "A")]))
        assert exc.value.cycle == ["A", "B", "A"]

    def test_witness_is_a_real_cycle(self):
        edges = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "B")]
        with pytest.raises(CycleError) as exc:
            check_acyclic(graph_of("ABCD", edges))
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) >= 3
        edge_set = set(edges)
        for u, v in zip(cycle, cycle[1:]):
            assert (u, v) in edge_set

    def test_random_dags_are_accepted(self):
        for seed in range(25):
            rng = random.Random(seed)
            nodes, edges = random_dag(rng, rng.randint(1, 60))
            check_acyclic(graph_of(nodes, edges))

    def test_witness_on_random_graphs_with_injected_cycle(self):
        for seed in range(30):
            rng = random.Random(500 + seed)
            nodes, edges = random_dag(rng, rng.randint(3, 40), edge_prob=0.3)
            assignment = stratify(graph_of(nodes, edges))
            ordered = sorted(nodes, key=lambda n: assignment.level_of[n])
            lo, hi = sorted(rng.sample(range(len(ordered)), 2))
            u, v = ordered[lo], ordered[hi]
            forward = set(edges) | {(u, v)}
            broken = forward | {(v, u)}  # back edge closes a cycle
            with pytest.raises(CycleError) as exc:
                check_acyclic(graph_of(nodes, broken))
            cycle = exc.value.cycle
            assert cycle[0] == cycle[-1] and len(cycle) >= 3
            for a, b in zip(cycle, cycle[1:]):
                assert (a, b) in broken
            # The witness does not depend on the order the graph was built in.
            shuffled_nodes, shuffled_edges = list(nodes), list(broken)
            rng.shuffle(shuffled_nodes)
            rng.shuffle(shuffled_edges)
            with pytest.raises(CycleError) as shuffled:
                check_acyclic(graph_of(shuffled_nodes, shuffled_edges))
            assert shuffled.value.cycle == cycle


class TestStratify:
    def test_forced_chain(self):
        g = graph_of("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
        levels = stratify(g)
        assert levels.level_of == {"A": 0, "B": 1, "C": 2}
        assert levels.levels == (("A",), ("B",), ("C",))

    def test_independent_roots(self):
        levels = stratify(graph_of("AB", []))
        assert levels.level_of == {"A": 0, "B": 0}
        assert levels.levels == (("A", "B"),)

    def test_matches_longest_path_oracle_on_random_dags(self):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            nodes, edges = random_dag(rng, 50)
            assert stratify(graph_of(nodes, edges)).level_of == oracle_levels(nodes, edges)

    def test_every_edge_goes_strictly_up(self):
        rng = random.Random(7)
        nodes, edges = random_dag(rng, 50, edge_prob=0.2)
        level_of = stratify(graph_of(nodes, edges)).level_of
        for u, v in edges:
            assert level_of[u] < level_of[v]

    def test_permutation_invariance(self):
        rng = random.Random(3)
        nodes, edges = random_dag(rng, 40)
        baseline = stratify(graph_of(nodes, edges)).level_of
        for seed in range(5):
            shuffled_nodes = list(nodes)
            shuffled_edges = list(edges)
            random.Random(seed).shuffle(shuffled_nodes)
            random.Random(seed).shuffle(shuffled_edges)
            assert stratify(graph_of(shuffled_nodes, shuffled_edges)).level_of == baseline

    def test_cycle_raises_cycle_error_with_witness(self):
        with pytest.raises(CycleError) as exc:
            stratify(graph_of("AB", [("A", "B"), ("B", "A")]))
        assert exc.value.cycle == ["A", "B", "A"]


class TestSchedule:
    def test_two_levels(self):
        levels = stratify(graph_of("AB", [("A", "B")]))
        assert schedule(levels, 10) == [["A"], ["B"]]

    def test_chunking_arithmetic(self):
        levels = stratify(graph_of("ABCDE", []))
        sizes = [len(b) for b in schedule(levels, 2)]
        assert sizes == [2, 2, 1]

    def test_concatenation_is_topological(self):
        rng = random.Random(11)
        nodes, edges = random_dag(rng, 50, edge_prob=0.2)
        g = graph_of(nodes, edges)
        order = [n for batch in schedule(stratify(g), 7) for n in batch]
        position = {n: i for i, n in enumerate(order)}
        # oracle: edge-order check over all edges
        for u, v in edges:
            assert position[u] < position[v]

    def test_output_is_a_permutation(self):
        rng = random.Random(13)
        nodes, edges = random_dag(rng, 64)
        order = [n for batch in schedule(stratify(graph_of(nodes, edges)), 5) for n in batch]
        assert len(order) == len(set(order)) == len(nodes)
        assert set(order) == set(nodes)

    def test_bad_batch_size(self):
        with pytest.raises(InvalidInput):
            schedule(stratify(graph_of("A", [])), 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_property_edges_respect_levels(seed, n):
    nodes, edges = random_dag(random.Random(seed), n)
    assignment = stratify(graph_of(nodes, edges))
    for u, v in edges:
        assert assignment.level_of[u] < assignment.level_of[v]
    flat = [x for batch in schedule(assignment, 1 + seed % 9) for x in batch]
    assert sorted(flat) == sorted(nodes)


def test_end_to_end_on_fixture(corpus30):
    g = build_graph(corpus30)
    check_acyclic(g)
    assignment = stratify(g)
    # item i depends on item i-1, so levels follow the chain
    assert assignment.level_of[corpus_name(0)] == 0
    assert assignment.level_of[corpus_name(1)] == 1
    dot = to_dot(g)
    assert dot.startswith("digraph") and corpus_name(0) in dot
