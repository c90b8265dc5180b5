"""Dependency DAG construction and stratification.

Levels follow the longest prerequisite chain: a declaration sits one level
above the highest of its prerequisites, so every level depends only on
strictly lower levels.  One walk, Kahn's, levels the graph and finds the
witness cycle when there is one.  Levels fix the order in which translations are
sent and written: each level's statements by name, then its proofs.  The
pipeline's one send cursor walks that order; it waits at a statement until
its own prerequisites are translated, not for the whole level below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CycleError
from .records import CorpusIndex


@dataclass(frozen=True)
class DepGraph:
    """Directed graph with edges (prerequisite, dependent)."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    unresolved_count: int = 0

    def prerequisites(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            preds[v].append(u)
        return preds

    def dependents(self) -> dict[str, list[str]]:
        succs: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            succs[u].append(v)
        return succs


@dataclass(frozen=True)
class LevelAssignment:
    """Stratification of a DAG: ``levels[i]`` holds exactly the names at level i."""

    level_of: dict[str, int]
    levels: tuple[tuple[str, ...], ...] = field(default=())


def build_graph(index: CorpusIndex) -> DepGraph:
    """One edge per dependency that resolves inside the index.

    Dependencies on names outside the index are dropped from the graph (they
    were already flagged at parse time) and counted in ``unresolved_count``;
    such nodes act as roots for leveling.
    """
    nodes = frozenset(index.declarations)
    edges = set()
    unresolved = 0
    for name, rec in index.declarations.items():
        for dep in rec.dependencies:
            if dep in nodes:
                edges.add((dep, name))
            else:
                unresolved += 1
    return DepGraph(nodes=nodes, edges=frozenset(edges), unresolved_count=unresolved)


def check_acyclic(graph: DepGraph) -> None:
    """Raise :func:`stratify`'s :class:`CycleError` if the graph has a cycle."""
    stratify(graph)


def stratify(graph: DepGraph) -> LevelAssignment:
    """Assign each node the length of its longest prerequisite chain.

    Roots (no prerequisites) get level 0; every other node gets one more
    than the maximum level among its prerequisites.  Nodes that Kahn's pass
    leaves over each keep a leftover prerequisite, so when the graph is not
    a DAG, stepping from the least leftover node to its least leftover
    prerequisite, and on from there, repeats a node; :class:`CycleError`
    carries that cycle in edge order, first node repeated last.
    """
    preds = graph.prerequisites()
    succs = graph.dependents()
    indegree = {n: len(ps) for n, ps in preds.items()}
    level_of = {n: 0 for n in graph.nodes}

    queue = sorted(n for n, d in indegree.items() if d == 0)
    while queue:
        node = queue.pop()
        for dep in succs[node]:
            level_of[dep] = max(level_of[dep], level_of[node] + 1)
            indegree[dep] -= 1
            if indegree[dep] == 0:
                queue.append(dep)
    left = {n for n, d in indegree.items() if d}
    if left:
        walk: dict[str, None] = {}
        node = min(left)
        while node not in walk:
            walk[node] = None
            node = min(p for p in preds[node] if p in left)
        path = list(walk)
        raise CycleError([node, *reversed(path[path.index(node):])])

    buckets: list[list[str]] = [[] for _ in range(max(level_of.values(), default=-1) + 1)]
    for n, lvl in level_of.items():
        buckets[lvl].append(n)
    return LevelAssignment(level_of=level_of, levels=tuple(tuple(sorted(b)) for b in buckets))


def to_dot(graph: DepGraph) -> str:
    """DOT rendering for inspection; deterministic node/edge order."""
    lines = ["digraph dependencies {"]
    for n in sorted(graph.nodes):
        lines.append(f'  "{n}";')
    for u, v in sorted(graph.edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
