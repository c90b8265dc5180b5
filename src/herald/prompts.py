"""Prompt assembly for statement and proof informalization.

Templates live in a JSON registry (explicit segment arrays, no template
language) so operators can audit and edit every byte that reaches a model.
Principles and tactic explanations are operator data shipped as seed files,
not code.  Assembly is pure: equal contexts produce byte-identical prompts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

from .datastore import check_shape, parse_json
from .errors import InvalidInput, LengthMismatch, MissingField, NoTemplate, SchemaError
from .records import DeclarationRecord, DeclKind, NeighborSet, ProofStep
from .retrieval import ScoredExample

REGISTRY_SCHEMA_VERSION = "1"

_STATEMENT_PLACEHOLDERS = {
    "principles",
    "retrieved_examples",
    "head_statements",
    "docstring",
    "dependent_translations",
    "neighbors",
    "subject_signature",
}
_PROOF_PLACEHOLDERS = {"informal_statement", "formal_statement", "steps"}
_SUMMARY_PLACEHOLDERS = {"informal_statement", "formal_statement", "stepwise_translations"}
_ALL_PLACEHOLDERS = _STATEMENT_PLACEHOLDERS | _PROOF_PLACEHOLDERS | _SUMMARY_PLACEHOLDERS

_KIND_VALUES = {k.value for k in DeclKind}
NO_NOTE_MARKER = "(no note for this tactic)"


@dataclass(frozen=True)
class StatementContext:
    """The five context components gathered for one statement translation."""

    subject: DeclarationRecord
    head_statements: str = ""
    dependent_translations: tuple[tuple[str, str], ...] = ()
    neighbors: NeighborSet = NeighborSet()
    retrieved: tuple[ScoredExample, ...] = ()


@dataclass(frozen=True)
class ProofContext:
    """Inputs for stepwise proof translation; statement pass must precede it."""

    formal_statement: str
    informal_statement: str
    steps: tuple[ProofStep, ...]
    tactic_notes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Segment:
    kind: str  # "literal" | "placeholder"
    text: str = ""
    name: str = ""
    label: str = ""
    required: bool = False


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    applies_to: frozenset[str]
    segments: tuple[Segment, ...]
    principles: tuple[str, ...] = ()

    def __post_init__(self):
        for seg in self.segments:
            if seg.kind == "placeholder" and seg.name not in _ALL_PLACEHOLDERS:
                raise InvalidInput(f"template {self.id}: unknown placeholder '{seg.name}'")
            if seg.kind not in ("literal", "placeholder"):
                raise InvalidInput(f"template {self.id}: unknown segment kind '{seg.kind}'")
        if self.applies_to & _KIND_VALUES and not self.principles:
            raise InvalidInput(f"statement template {self.id} must carry principles")


@dataclass(frozen=True)
class RenderedPrompt:
    text: str


class TemplateRegistry:
    """Templates keyed by what they apply to, with a registry-wide default."""

    def __init__(self, templates: list[PromptTemplate], default_id: str | None = None):
        self.templates = list(templates)
        self.default_id = default_id
        self._by_id = {t.id: t for t in templates}
        if default_id is not None and default_id not in self._by_id:
            raise InvalidInput(f"default template '{default_id}' not in registry")

    def select(self, kind: str) -> PromptTemplate:
        """Most specific applicable template; smaller applies_to wins."""
        candidates = [t for t in self.templates if kind in t.applies_to]
        if candidates:
            return min(candidates, key=lambda t: (len(t.applies_to), t.id))
        if self.default_id is not None:
            return self._by_id[self.default_id]
        raise NoTemplate(f"no template for '{kind}' and registry has no default")

    @classmethod
    def from_json(cls, raw: str | bytes, where: str = "$") -> "TemplateRegistry":
        """A registry from its JSON text; a malformed one is a
        :class:`SchemaError` at the JSON path (below ``where``) of its first
        misfit.  An optional field left out takes its default."""
        doc = parse_json(raw, where)
        check_shape(doc, dict, where)
        if (version := doc.get("schema_version")) != REGISTRY_SCHEMA_VERSION:
            raise SchemaError(f"unsupported registry schema_version {version!r}",
                              f"{where}.schema_version")
        doc = {"templates": [], "default": None, **doc}
        check_shape(doc, {"templates": [dict], "default": (str, type(None))}, where)
        templates = []
        for i, tobj in enumerate(doc["templates"]):
            at = f"{where}.templates[{i}]"
            tobj = {"principles": [], **tobj}
            check_shape(tobj, _TEMPLATE, at)
            segments = [{"text": "", "name": "", "label": "", "required": False, **seg}
                        for seg in tobj["segments"]]
            check_shape(segments, [_SEGMENT], f"{at}.segments")
            try:
                templates.append(PromptTemplate(
                    tobj["id"], frozenset(tobj["applies_to"]),
                    tuple(Segment(*(seg[key] for key in _SEGMENT)) for seg in segments),
                    tuple(tobj["principles"])))
            except InvalidInput as exc:
                raise SchemaError(str(exc), at) from exc
        return cls(templates, doc["default"])

    @classmethod
    def from_path(cls, path: str | Path) -> "TemplateRegistry":
        return cls.from_json(Path(path).read_bytes(), f"{path}: $")


# Segment's fields in order.
_SEGMENT = {"kind": str, "text": str, "name": str, "label": str, "required": bool}
_TEMPLATE = {"id": str, "applies_to": [str], "segments": [dict], "principles": [str]}


def default_registry() -> TemplateRegistry:
    """The registry bundled with the package."""
    text = resources.files("herald").joinpath("data/templates.json").read_text("utf-8")
    return TemplateRegistry.from_json(text)


def load_tactic_notes(path: str | Path | None = None) -> dict[str, str]:
    """Tactic-name -> explanation map; bundled seed file when no path given.
    A file that is not a JSON object of strings is a :class:`SchemaError`
    naming it."""
    source = (resources.files("herald").joinpath("data/tactic_notes.json") if path is None
              else Path(path))
    notes = parse_json(source.read_bytes(), str(source))
    check_shape(notes, {str: str}, f"{source}: $")
    return notes


# --- rendering -----------------------------------------------------------


def _render_retrieved(retrieved: tuple[ScoredExample, ...]) -> str:
    blocks = []
    for scored in retrieved:
        blocks.append(
            f"Formal: {scored.example.formal_text}\nInformal: {scored.example.informal_text}"
        )
    return "\n\n".join(blocks)


def _render_dependents(entries: tuple[tuple[str, str], ...]) -> str:
    return "\n".join(f"- {name}: {text}" for name, text in entries)


def _render_neighbors(
    neighbors: NeighborSet, resolve_signature: Callable[[str], str] | None
) -> str:
    def block(title: str, names: tuple[str, ...]) -> str:
        if not names:
            return ""
        lines = [title]
        for n in names:
            if resolve_signature is not None:
                lines.append(f"  {resolve_signature(n)}")
            else:
                lines.append(f"  {n}")
        return "\n".join(lines)

    parts = [
        block("Same namespace:", neighbors.same_namespace),
        block("Same file:", neighbors.same_file),
        block("Shared name prefix:", neighbors.name_prefix_shared),
    ]
    return "\n".join(p for p in parts if p)


def _render_state(hypotheses, goals) -> str:
    lines = [f"{name} : {ty}" for name, ty in hypotheses]
    if goals:
        lines.extend(f"⊢ {g}" for g in goals)
    else:
        lines.append("(no goals remaining)")
    return "\n".join(lines)


def _render_steps(steps: tuple[ProofStep, ...], notes: dict[str, str]) -> str:
    blocks = []
    for step in steps:
        head = step.tactic_text.strip().split()
        note = notes.get(head[0], NO_NOTE_MARKER) if head else NO_NOTE_MARKER
        blocks.append(
            f"Step {step.step_index + 1}: {step.tactic_text}\n"
            f"Tactic note: {note}\n"
            "State before:\n"
            f"{_render_state(step.state_before.hypotheses, step.state_before.goals)}\n"
            "State after:\n"
            f"{_render_state(step.state_after.hypotheses, step.state_after.goals)}"
        )
    return "\n\n".join(blocks)


def _render(template: PromptTemplate, contents: dict[str, str]) -> RenderedPrompt:
    parts = []
    for seg in template.segments:
        if seg.kind == "literal":
            parts.append(seg.text)
            continue
        content = contents.get(seg.name, "")
        if not content:
            if seg.required:
                raise MissingField(f"template {template.id} requires '{seg.name}'")
            continue
        if seg.label:
            parts.append(f"{seg.label}\n{content}\n")
        else:
            parts.append(f"{content}\n")
    return RenderedPrompt(text="\n".join(parts))


def assemble_statement_prompt(
    ctx: StatementContext,
    registry: TemplateRegistry,
    resolve_signature: Callable[[str], str] | None = None,
    max_chars: int | None = None,
) -> RenderedPrompt:
    """Render the statement prompt for the subject's kind.

    When ``max_chars`` is set and exceeded, neighbors are dropped first,
    then head statements.  Dependent translations and the subject itself
    are never dropped: they are the point of the exercise.
    """
    template = registry.select(ctx.subject.kind.value)
    contents = {
        "principles": "\n".join(
            f"{i + 1}. {p}" for i, p in enumerate(template.principles)
        ),
        "retrieved_examples": _render_retrieved(ctx.retrieved),
        "head_statements": ctx.head_statements,
        "docstring": ctx.subject.docstring or "",
        "dependent_translations": _render_dependents(ctx.dependent_translations),
        "neighbors": _render_neighbors(ctx.neighbors, resolve_signature),
        "subject_signature": ctx.subject.signature,
    }
    rendered = _render(template, contents)
    if max_chars is not None and len(rendered.text) > max_chars:
        contents["neighbors"] = ""
        rendered = _render(template, contents)
        if len(rendered.text) > max_chars:
            contents["head_statements"] = ""
            rendered = _render(template, contents)
    return rendered


def _proof_prompt(ctx: ProofContext, steps: tuple[ProofStep, ...],
                  registry: TemplateRegistry) -> RenderedPrompt:
    return _render(registry.select("proof"), {
        "formal_statement": ctx.formal_statement,
        "informal_statement": ctx.informal_statement,
        "steps": _render_steps(steps, ctx.tactic_notes),
    })


def assemble_proof_prompt(ctx: ProofContext, registry: TemplateRegistry) -> RenderedPrompt:
    """Render the stepwise proof prompt: every step with its states and note."""
    return _proof_prompt(ctx, ctx.steps, registry)


def assemble_step_prompt(
    ctx: ProofContext, step_index: int, registry: TemplateRegistry
) -> RenderedPrompt:
    """Prompt for translating a single proof step in context."""
    return _proof_prompt(ctx, (ctx.steps[step_index],), registry)


def summarize_steps_prompt(
    stepwise_translations: list[str], ctx: ProofContext, registry: TemplateRegistry
) -> RenderedPrompt:
    """Prompt asking for one coherent proof from the ordered stepwise texts."""
    if len(stepwise_translations) != len(ctx.steps):
        raise LengthMismatch(
            f"{len(stepwise_translations)} translations for {len(ctx.steps)} steps"
        )
    template = registry.select("summary")
    contents = {
        "formal_statement": ctx.formal_statement,
        "informal_statement": ctx.informal_statement,
        "stepwise_translations": "\n\n".join(
            f"({i + 1}) {text}" for i, text in enumerate(stepwise_translations)
        ),
    }
    return _render(template, contents)


def build_statement_context(
    subject: DeclarationRecord,
    index,
    assignment,
    translations: dict[str, str],
    retrieved: tuple[ScoredExample, ...] = (),
    neighbor_limit: int = 5,
) -> StatementContext:
    """Gather the five context components for ``subject`` from the corpus.

    Dependent translations are taken from ``translations`` for resolvable
    dependencies at strictly lower levels, ordered by (level, name).
    """
    from .ingest import resolve_neighbors

    subject_level = assignment.level_of.get(subject.full_name, 0)
    deps = []
    for dep in sorted(subject.dependencies):
        if not translations.get(dep):
            continue
        dep_level = assignment.level_of.get(dep)
        if dep_level is None or dep_level >= subject_level:
            continue
        deps.append((dep_level, dep))
    deps.sort()
    return StatementContext(
        subject=subject,
        head_statements=index.head_statements.get(subject.file_path, ""),
        dependent_translations=tuple((name, translations[name]) for _, name in deps),
        neighbors=resolve_neighbors(subject.full_name, index, neighbor_limit),
        retrieved=retrieved,
    )
