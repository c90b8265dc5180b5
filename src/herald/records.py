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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ProofStep:
    """One tactic invocation with the states around it."""

    tactic_text: str
    state_before: ProofState
    state_after: ProofState
    step_index: int

    def __post_init__(self):
        if self.step_index < 0:
            raise InvalidInput(f"negative step_index: {self.step_index}")
        if not self.tactic_text:
            raise InvalidInput("empty tactic_text")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class NeighborGroups:
    """Declaration names grouped by each relation :class:`NeighborSet` uses.

    ``by_prefix`` maps every leading run of a name's dot-separated
    components (``("A",)``, ``("A", "b")``, ...) to the names that start
    with it, so each name is in the group of each of its own prefixes.
    Names in a group keep corpus order.
    """

    by_namespace: dict[tuple[str, ...], list[str]]
    by_file: dict[str, list[str]]
    by_prefix: dict[tuple[str, ...], list[str]]


@dataclass(frozen=True)
class CorpusIndex:
    """The parsed corpus: declarations, tactic proofs, and file preambles.

    ``warnings`` records dangling dependency references found at parse time.
    """

    declarations: dict[str, DeclarationRecord]
    proofs: dict[str, tuple[ProofStep, ...]] = field(default_factory=dict)
    head_statements: dict[str, str] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for name, steps in self.proofs.items():
            decl = self.declarations.get(name)
            if decl is None:
                raise InvalidInput(f"proof attached to unknown declaration {name}")
            if decl.kind not in PROVABLE_KINDS:
                raise InvalidInput(
                    f"proof attached to {name} of kind {decl.kind.value}; "
                    "only theorem/instance may carry proofs"
                )
            if [s.step_index for s in steps] != list(range(len(steps))):
                raise InvalidInput(f"proof of {name}: step_index not contiguous from 0")

    @cached_property
    def neighbor_groups(self) -> NeighborGroups:
        """Built on first use; ``declarations`` is never written after construction."""
        groups = NeighborGroups({}, {}, {})
        for name, rec in self.declarations.items():
            groups.by_namespace.setdefault(rec.namespace_path, []).append(name)
            groups.by_file.setdefault(rec.file_path, []).append(name)
            parts = tuple(name.split("."))
            for end in range(1, len(parts) + 1):
                groups.by_prefix.setdefault(parts[:end], []).append(name)
        return groups

    def tactic_proof_names(self) -> list[str]:
        """Names of declarations with an ingested tactic proof, sorted."""
        return sorted(
            name for name in self.proofs if self.declarations[name].is_tactic_proof
        )
