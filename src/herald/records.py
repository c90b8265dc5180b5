"""Normalized declaration and proof records extracted from a Lean corpus.

These types are immutable after construction; a built ``CorpusIndex`` can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import InvalidInput


class DeclKind(str, Enum):
    """The eight declaration kinds accepted by the pipeline.

    Unknown kinds in input are rejected, never coerced.
    """

    THEOREM = "theorem"
    INSTANCE = "instance"
    DEFINITION = "definition"
    STRUCTURE = "structure"
    CLASS = "class"
    INDUCTIVE = "inductive"
    CLASS_INDUCTIVE = "classInductive"
    OPAQUE = "opaque"


#: Kinds whose declarations may carry a tactic proof.
PROVABLE_KINDS = frozenset({DeclKind.THEOREM, DeclKind.INSTANCE})


@dataclass(frozen=True, slots=True)
class ProofState:
    """Hypotheses and goals at one point in a tactic proof.

    ``goals`` may be empty (a closed state). Hypothesis names are unique
    within one state.
    """

    hypotheses: tuple[tuple[str, str], ...] = ()
    goals: tuple[str, ...] = ()

    def __post_init__(self):
        names = [name for name, _ in self.hypotheses]
        if len(names) != len(set(names)):
            raise InvalidInput(f"duplicate hypothesis name in state: {names}")


@dataclass(frozen=True, slots=True)
class ProofStep:
    """One tactic invocation with the states around it."""

    tactic_text: str
    state_before: ProofState
    state_after: ProofState
    step_index: int

    def __post_init__(self):
        if not self.tactic_text:
            raise InvalidInput("empty tactic_text")


@dataclass(frozen=True, slots=True)
class DeclarationRecord:
    """One Lean declaration as extracted from corpus metadata."""

    full_name: str
    kind: DeclKind
    signature: str
    docstring: str | None
    namespace_path: tuple[str, ...]
    file_path: str
    line_span: tuple[int, int]
    dependencies: frozenset[str]
    is_tactic_proof: bool

    def __post_init__(self):
        if not self.full_name:
            raise InvalidInput("empty full_name")
        start, end = self.line_span
        if start < 1 or end < start:
            raise InvalidInput(f"bad line_span {self.line_span} for {self.full_name}")
        if self.full_name in self.dependencies:
            raise InvalidInput(f"{self.full_name} lists itself as a dependency")


@dataclass(frozen=True)
class NeighborSet:
    """Declarations related to a subject by namespace, file, or name prefix.

    The subject itself never appears in any list.
    """

    same_namespace: tuple[str, ...] = ()
    same_file: tuple[str, ...] = ()
    name_prefix_shared: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class NeighborGroup:
    """The names in one group, ranked both ways a neighbor lookup reads them.

    ``names`` is sorted; ``lines[file]`` lists the members declared in
    ``file`` as sorted (start line, name) pairs.
    """

    names: list[str]
    lines: dict[str, list[tuple[int, str]]]


@dataclass(frozen=True)
class NeighborGroups:
    """Declaration names grouped by each relation :class:`NeighborSet` uses.

    ``by_prefix`` maps each leading run of dot-separated components
    (``("A",)``, ``("A", "b")``, ...) that two or more names start with to
    those names, the full name counting as a run of itself: ``A.b`` and
    ``A.b.sub`` share the group ``("A", "b")``.  A run only one name starts
    with is left out; that group would hold the name alone, and a neighbor
    lookup never reads it.
    """

    by_namespace: dict[tuple[str, ...], NeighborGroup]
    by_file: dict[str, NeighborGroup]
    by_prefix: dict[tuple[str, ...], NeighborGroup]


@dataclass(frozen=True)
class CorpusIndex:
    """The parsed corpus: declarations, tactic proofs, and file preambles.

    ``proofs`` holds proofs of theorems and instances only, each step's
    ``step_index`` its position; :func:`herald.ingest.parse_jixia_export`
    refuses any other.  A declaration's dependencies may name declarations
    outside the index; :mod:`herald.depgraph` tells them apart.
    """

    declarations: dict[str, DeclarationRecord]
    proofs: dict[str, tuple[ProofStep, ...]] = field(default_factory=dict)
    head_statements: dict[str, str] = field(default_factory=dict)

    @cached_property
    def neighbor_groups(self) -> NeighborGroups:
        """Built on first use; ``declarations`` is never written after construction."""
        by_namespace, by_file, by_prefix = {}, {}, {}
        for name, rec in self.declarations.items():
            parts = tuple(name.split("."))
            memberships = [(by_namespace, rec.namespace_path), (by_file, rec.file_path)]
            memberships += [(by_prefix, parts[:end]) for end in range(1, len(parts) + 1)]
            for by, key in memberships:
                group = by.get(key)
                if group is None:
                    group = by[key] = NeighborGroup([], {})
                group.names.append(name)
                group.lines.setdefault(rec.file_path, []).append((rec.line_span[0], name))
        by_prefix = {key: group for key, group in by_prefix.items() if len(group.names) > 1}
        groups = NeighborGroups(by_namespace, by_file, by_prefix)
        for by in (by_namespace, by_file, by_prefix):
            for group in by.values():
                group.names.sort()
                for entries in group.lines.values():
                    entries.sort()
        return groups

    def tactic_proof_names(self) -> list[str]:
        """Names of declarations with an ingested tactic proof, sorted."""
        return sorted(
            name for name in self.proofs if self.declarations[name].is_tactic_proof
        )
