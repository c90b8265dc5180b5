"""Dataset augmentation: statements from proof states and informal variants.

Every intermediate proof state captures a localized, provable claim: its
hypotheses become binders and its goal becomes the conclusion of a fresh
standalone statement with a ``sorry`` body.  Whether the emitted statement
actually elaborates is left to compile filtering; nothing is inferred here.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import datastore as ds
from .gateway import STRATEGY_MARKER, STRATEGY_TEXT_MARKER, normalize_text
from .records import CorpusIndex, DeclarationRecord, DeclKind, ProofState
from .validate import DEFAULT_TIMEOUT_MS

_ANON_MARKER = "✝"
_INSTANCE_NAME_RE = re.compile(r"inst(✝.*|\d*)$")


@dataclass(frozen=True)
class SynthesizedStatement:
    """A standalone statement built from one goal of one proof state."""

    name: str
    formal_text: str
    origin: str
    origin_step: int
    goal_index: int
    context_preamble: str = ""

    def record(self) -> DeclarationRecord:
        """The statement as a theorem whose signature is everything before
        its ``:= by sorry`` body, for the statement prompt."""
        return DeclarationRecord(
            full_name=self.name,
            kind=DeclKind.THEOREM,
            signature=self.formal_text.removesuffix(" := by sorry").strip(),
            docstring=None,
            namespace_path=(),
            file_path="",
            line_span=(1, 1),
            dependencies=frozenset(),
            is_tactic_proof=True,
        )


@dataclass(frozen=True)
class RejectedStatement:
    statement: SynthesizedStatement
    diagnostic: str


def _render_binders(hypotheses: Sequence[tuple[str, str]]) -> list[str]:
    """Binders in hypothesis order; instance-like hypotheses become [T],
    anonymous names are regenerated as h1, h2, ..."""
    used = {name for name, _ in hypotheses}
    binders = []
    counter = 0
    for name, type_expr in hypotheses:
        if _INSTANCE_NAME_RE.fullmatch(name):
            binders.append(f"[{type_expr}]")
            continue
        if not name or name == "_" or _ANON_MARKER in name:
            counter += 1
            fresh = f"h{counter}"
            while fresh in used:
                counter += 1
                fresh = f"h{counter}"
            used.add(fresh)
            name = fresh
        binders.append(f"({name} : {type_expr})")
    return binders


def synthesize_from_state(
    state: ProofState, origin: str, step: int, context_preamble: str = ""
) -> list[SynthesizedStatement]:
    """One statement per goal of ``state``; a closed state yields nothing."""
    statements = []
    binders = _render_binders(state.hypotheses)
    binder_text = " ".join(binders)
    for goal_index, goal in enumerate(state.goals):
        name = f"{origin}_tac_{step}"
        if goal_index > 0:
            name += f"_g{goal_index}"
        if binder_text:
            formal = f"theorem {name} {binder_text} : {goal} := by sorry"
        else:
            formal = f"theorem {name} : {goal} := by sorry"
        statements.append(
            SynthesizedStatement(
                name=name,
                formal_text=formal,
                origin=origin,
                origin_step=step,
                goal_index=goal_index,
                context_preamble=context_preamble,
            )
        )
    return statements


_PREAMBLE_LINE_RE = re.compile(r"^(import|open)\s+\S")


def extract_preamble(head_statement: str) -> str:
    """Import/open lines from a file preamble, for replay before compiling."""
    lines = [ln for ln in head_statement.splitlines() if _PREAMBLE_LINE_RE.match(ln.strip())]
    return "\n".join(ln.strip() for ln in lines)


def synthesize_for_index(index: CorpusIndex) -> list[SynthesizedStatement]:
    """Statements from the pre-step state of every tactic-proof step.

    The origin file's import/open lines (as found in its head statement)
    are attached as ``context_preamble`` so compile filtering can replay
    the environment the state was extracted from.
    """
    out = []
    for name in index.tactic_proof_names():
        decl = index.declarations[name]
        preamble = extract_preamble(index.head_statements.get(decl.file_path, ""))
        for step in index.proofs[name]:
            out.extend(
                synthesize_from_state(
                    step.state_before, name, step.step_index, context_preamble=preamble
                )
            )
    return out


def compile_filter(
    candidates: list[SynthesizedStatement], backend, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> tuple[list[SynthesizedStatement], list[RejectedStatement]]:
    """Partition candidates by whether they elaborate (with the sorry body)."""
    valid: list[SynthesizedStatement] = []
    rejected: list[RejectedStatement] = []
    for cand in candidates:
        source = cand.formal_text
        if cand.context_preamble:
            source = cand.context_preamble + "\n\n" + source
        outcome = backend.check(source, timeout_ms)
        if outcome.ok:
            valid.append(cand)
        else:
            rejected.append(
                RejectedStatement(cand, "; ".join(outcome.diagnostics) or "rejected")
            )
    return valid, rejected


def write_rejected_report(rejected: list[RejectedStatement], path: str | Path) -> int:
    rows = (
        {
            "name": item.statement.name,
            "formal_text": item.statement.formal_text,
            "origin": item.statement.origin,
            "diagnostic": item.diagnostic,
        }
        for item in rejected
    )
    ds.replace_atomic(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
    return len(rejected)


def dedup_sample(augmented: list, n_original: int, seed: int) -> list:
    """Uniform sample without replacement of size min(n_original, len).

    Deterministic for a given seed; input order is preserved among the
    selected items.  Consecutive proof states produce near-duplicate
    statements, so training pools keep only as many augmented statements
    as there were original theorems.

    Sampling is block-rotated: a shared shuffle is derived from
    ``seed // blocks`` and the draw takes block ``seed % blocks`` of it.
    Any single draw is a uniformly distributed subset, while a contiguous
    seed range covers the pool evenly (replicated runs with nearby seeds
    do not pile onto the same items).
    """
    size = min(n_original, len(augmented))
    if size == len(augmented):
        return list(augmented)
    if size == 0:
        return []
    blocks = len(augmented) // size
    rng = random.Random(seed // blocks)
    perm = list(range(len(augmented)))
    rng.shuffle(perm)
    rotation = seed % blocks
    chosen = sorted(perm[rotation * size : (rotation + 1) * size])
    return [augmented[i] for i in chosen]


# --- informal variants ----------------------------------------------------


# The four strategy families, translation once per language, as (tag,
# instruction) in a fixed order: a kept variant is named by its index here.
_TRANSLATE = "Translate the statement into the requested language, keeping formulas in LaTeX."
STRATEGIES = (
    ("logical_equivalence_rewriting",
     "Rewrite the statement as a logically equivalent natural-language statement "
     "with a different sentence structure. For example, 'If A, then B' may become "
     "'B holds given A'. Do not change the mathematical content."),
    ("abstract_concept_substitution",
     "Restate the statement using a more abstract or higher-level mathematical "
     "concept when one captures it exactly. For example, the existence of a "
     "two-sided inverse matrix may be stated as the matrix being non-degenerate."),
    ("omission_of_implicit_condition",
     "Restate the statement the way a textbook would, omitting conditions a "
     "reader infers from context or convention. Keep the core claim intact."),
    ("multi_linguistic_translation zh", _TRANSLATE),
    ("multi_linguistic_translation fr", _TRANSLATE),
    ("multi_linguistic_translation ru", _TRANSLATE),
)


@dataclass(frozen=True)
class VariantBatch:
    """The variant kept, if any, as (strategy index, text), plus bookkeeping:
    attempted == kept + dropped."""

    variants: tuple[tuple[int, str], ...]
    attempted: int
    dropped: int


def strategy_prompt(strategy: int, informal_text: str) -> str:
    """The prompt asking for strategy ``STRATEGIES[strategy]`` of ``informal_text``."""
    tag, instruction = STRATEGIES[strategy]
    return (
        "You rephrase natural-language mathematical statements.\n\n"
        f"{instruction}\n\n"
        f"{STRATEGY_MARKER} {tag}\n"
        f"{STRATEGY_TEXT_MARKER}\n{informal_text}\n"
    )


def strategy_order(pair_id: str, seed: int) -> list[int]:
    """The indices of :data:`STRATEGIES` shuffled by ``seed`` and ``pair_id``
    alone: a string seed, so neither ``PYTHONHASHSEED`` nor the other
    statements count."""
    order = list(range(len(STRATEGIES)))
    random.Random(f"{seed}:{pair_id}").shuffle(order)
    return order


def differs(pair, text: str) -> bool:
    """Whether ``text`` differs from ``pair``'s informal text after
    whitespace/case normalization: a variant that does not is dropped."""
    return normalize_text(text) != normalize_text(pair.informal_text)


def informal_variants(pair, order: Sequence[int], answers: Sequence[str]) -> VariantBatch:
    """The variant kept from ``answers``, the stripped, non-blank answers to
    the strategies of ``order`` in turn: the first that :func:`differs` is
    kept, and each before it is dropped and counted."""
    for attempted, (strategy, text) in enumerate(zip(order, answers), 1):
        if differs(pair, text):
            return VariantBatch(((strategy, text),), attempted, attempted - 1)
    return VariantBatch((), len(answers), len(answers))
