"""Dependency DAG construction and stratification.

Levels follow the longest prerequisite chain: a declaration sits one level
above the highest of its prerequisites, so every level depends only on
strictly lower levels.  Levels fix the order in which translations are
written.  Translation itself does not wait for a whole level: a declaration
is ready as soon as its own prerequisites are translated, and the
pipeline's one dispatch window sends it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CycleError, CyclicInput
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
    """Raise :class:`CycleError` with a witness cycle if the graph has one.

    The witness lists nodes in edge order with the first node repeated last.
    """
    succs = {n: sorted(vs) for n, vs in graph.dependents().items()}
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph.nodes}

    for start in sorted(graph.nodes):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        path = [start]
        color[start] = GREY
        while stack:
            node, child_i = stack[-1]
            if child_i < len(succs[node]):
                stack[-1] = (node, child_i + 1)
                child = succs[node][child_i]
                if color[child] == GREY:
                    cycle = path[path.index(child) :] + [child]
                    raise CycleError(cycle)
                if color[child] == WHITE:
                    color[child] = GREY
                    stack.append((child, 0))
                    path.append(child)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()


def stratify(graph: DepGraph) -> LevelAssignment:
    """Assign each node the length of its longest prerequisite chain.

    Roots (no prerequisites) get level 0; every other node gets one more
    than the maximum level among its prerequisites.  Raises
    :class:`CyclicInput` when the graph is not a DAG.
    """
    preds = graph.prerequisites()
    succs = graph.dependents()
    indegree = {n: len(ps) for n, ps in preds.items()}
    level_of = {n: 0 for n in graph.nodes}

    ready = sorted(n for n, d in indegree.items() if d == 0)
    processed = 0
    queue = list(ready)
    while queue:
        node = queue.pop()
        processed += 1
        for dep in succs[node]:
            level_of[dep] = max(level_of[dep], level_of[node] + 1)
            indegree[dep] -= 1
            if indegree[dep] == 0:
                queue.append(dep)
    if processed != len(graph.nodes):
        try:
            check_acyclic(graph)
        except CycleError as exc:
            raise CyclicInput(exc.cycle) from None
        raise CyclicInput([])  # unreachable: leftover nodes imply a cycle

    if level_of:
        depth = max(level_of.values()) + 1
        buckets: list[list[str]] = [[] for _ in range(depth)]
        for n, lvl in level_of.items():
            buckets[lvl].append(n)
        levels = tuple(tuple(sorted(b)) for b in buckets)
    else:
        levels = ()
    return LevelAssignment(level_of=level_of, levels=levels)


def to_dot(graph: DepGraph) -> str:
    """DOT rendering for inspection; deterministic node/edge order."""
    lines = ["digraph dependencies {"]
    for n in sorted(graph.nodes):
        lines.append(f'  "{n}";')
    for u, v in sorted(graph.edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
