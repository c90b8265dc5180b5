"""Dependency DAG construction and stratification.

This module alone decides what resolves: a dependency resolves iff it names a
declaration of the index.  :func:`build_graph` keeps the resolved ones as each
declaration's prerequisites and counts the rest; :func:`outside_dependencies`
lists the rest for ingest to report.

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
from typing import Iterator

from .errors import CycleError
from .records import CorpusIndex


@dataclass(frozen=True)
class DepGraph:
    """Each declaration's prerequisites, its dependencies inside the index,
    in no set order; ``unresolved_count`` counts the dependencies outside it."""

    prerequisites: dict[str, tuple[str, ...]]
    unresolved_count: int = 0


@dataclass(frozen=True)
class LevelAssignment:
    """Stratification of a DAG: ``levels[i]`` holds exactly the names at level i."""

    level_of: dict[str, int]
    levels: tuple[tuple[str, ...], ...] = field(default=())


def build_graph(index: CorpusIndex) -> DepGraph:
    """The prerequisites of every declaration of ``index``.

    A dependency outside the index is no prerequisite: it is counted in
    ``unresolved_count``, and a declaration whose dependencies all lie outside
    is a root for leveling.
    """
    names = index.declarations.keys()
    prerequisites = {}
    unresolved = 0
    for name, rec in index.declarations.items():
        inside = prerequisites[name] = tuple(rec.dependencies & names)
        unresolved += len(rec.dependencies) - len(inside)
    return DepGraph(prerequisites, unresolved)


def outside_dependencies(index: CorpusIndex) -> Iterator[tuple[str, str]]:
    """(name, dependency) for each dependency of ``index`` that names no
    declaration of it: names sorted, then each name's dependencies sorted."""
    declarations = index.declarations
    for name in sorted(declarations):
        for dep in sorted(declarations[name].dependencies):
            if dep not in declarations:
                yield name, dep


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
    carries that cycle in edge order, first node repeated last.  Neither the
    levels nor that cycle depend on the order of the prerequisites.
    """
    preds = graph.prerequisites
    succs: dict[str, list[str]] = {n: [] for n in preds}
    for n, ps in preds.items():
        for p in ps:
            succs[p].append(n)
    indegree = {n: len(ps) for n, ps in preds.items()}
    level_of = dict.fromkeys(preds, 0)

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
    """DOT rendering for inspection: the sorted names, then the sorted
    (prerequisite, dependent) edges."""
    preds = graph.prerequisites
    edges = sorted((p, n) for n, ps in preds.items() for p in ps)
    lines = ["digraph dependencies {", *(f'  "{n}";' for n in sorted(preds)),
             *(f'  "{u}" -> "{v}";' for u, v in edges), "}"]
    return "\n".join(lines) + "\n"
