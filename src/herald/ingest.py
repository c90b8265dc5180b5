"""Parse corpus metadata exports and raw Lean source into normalized records.

Two entry points feed the pipeline:

* :func:`parse_jixia_export` consumes the versioned JSON export documented in
  the README (schema_version "1") and is the production path.  Its format is
  stated once, as the shape ``_EXPORT`` for :func:`herald.datastore.check_shape`;
  what a shape cannot say is checked as the records are built.
* :func:`scan_declarations` is a best-effort regex scanner over raw Lean 4
  source for fixture-scale use when no analyzer export exists.  It does not
  elaborate anything: dependencies are left empty and term-mode proof bodies
  are not parsed.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Iterator

from .datastore import check_shape, parse_json
from .errors import InvalidInput, SchemaError
from .records import (
    PROVABLE_KINDS,
    CorpusIndex,
    DeclarationRecord,
    DeclKind,
    NeighborGroup,
    NeighborSet,
    ProofState,
    ProofStep,
)

SCHEMA_VERSION = "1"

_STATE = {"hypotheses": [[str, str]], "goals": [str]}
_STEP = {"tactic_text": str, "state_before": _STATE, "state_after": _STATE}
# A declaration holds exactly these fields; a step or a state may hold more,
# which real exports carry and the parser ignores.
_DECLARATION = {"full_name": str, "kind": str, "signature": str, "docstring": (str, type(None)),
                "namespace_path": [str], "file_path": str, "line_span": [int, int],
                "dependencies": [str], "is_tactic_proof": bool}
_EXPORT = {"declarations": [_DECLARATION], "proofs": {str: [_STEP]}, "head_statements": {str: str}}
_KINDS = {kind.value: kind for kind in DeclKind}
_NO_DEPENDENCIES: frozenset[str] = frozenset()  # shared by every record that has none
# ``json.dumps(..., ensure_ascii=False)`` builds an encoder per call.  The
# encoder writes a proof state as its ``_STATE`` fields, and a tuple as a list.
_ENCODER = json.JSONEncoder(ensure_ascii=False,
                            default=lambda state: {key: getattr(state, key) for key in _STATE})


def strip_docstring_markup(text: str) -> str:
    """Drop the ``/--`` ... ``-/`` delimiters; backtick spans stay verbatim."""
    body = text.strip()
    if body.startswith("/--"):
        body = body[3:]
    elif body.startswith("/-!"):
        body = body[3:]
    if body.endswith("-/"):
        body = body[:-2]
    return body.strip()


def parse_jixia_export(raw: bytes | str, where: str = "$") -> CorpusIndex:
    """Load a schema-version-1 corpus export into a :class:`CorpusIndex`.

    A malformed export is a :class:`SchemaError` at the JSON path (below
    ``where``) of the node at fault.  Dependencies pointing outside the
    export are kept on the record rather than rejected: partial exports are
    the common case at fixture scale.  What resolves is
    :mod:`herald.depgraph`'s to decide, and ingest reports the rest.
    Each decoded declaration and proof is dropped as soon as its records are
    built, so the records and the decoded document are never both held
    whole, and a value the export repeats (a file path, a namespace, a name
    that dependencies cite, a proof state) is held once.
    """
    doc = parse_json(raw, where)
    check_shape(doc, dict, where)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}",
                          f"{where}.schema_version")
    doc = {"proofs": {}, "head_statements": {}, **doc}
    check_shape(doc, _EXPORT, where)

    objs, steps_by_name = doc.pop("declarations"), doc.pop("proofs")
    shared: dict = {}

    def once(value):
        return shared.setdefault(value, value)

    declarations: dict[str, DeclarationRecord] = {}
    for i in range(len(objs)):
        obj, objs[i] = objs[i], None
        if len(obj) > len(_DECLARATION):
            unknown = sorted(obj.keys() - _DECLARATION.keys())
            raise SchemaError(f"unknown field(s): {unknown}", f"{where}.declarations[{i}]")
        kind = _KINDS.get(obj["kind"])
        if kind is None:
            raise SchemaError(f"unknown declaration kind {obj['kind']!r}",
                              f"{where}.declarations[{i}].kind")
        if not obj["signature"]:
            raise SchemaError('must be a non-empty string, got ""',
                              f"{where}.declarations[{i}].signature")
        docstring = obj["docstring"]
        try:
            rec = DeclarationRecord(
                once(obj["full_name"]), kind, obj["signature"],
                None if docstring is None else strip_docstring_markup(docstring),
                once(tuple(obj["namespace_path"])), once(obj["file_path"]),
                tuple(obj["line_span"]),
                frozenset(map(once, obj["dependencies"])) or _NO_DEPENDENCIES,
                obj["is_tactic_proof"],
            )
        except InvalidInput as exc:
            raise SchemaError(str(exc), f"{where}.declarations[{i}]") from exc
        if rec.full_name in declarations:
            # Each earlier declaration added one entry, in order.
            first = list(declarations).index(rec.full_name)
            raise SchemaError(f"{rec.full_name!r} repeats declarations[{first}]",
                              f"{where}.declarations[{i}].full_name")
        declarations[rec.full_name] = rec

    proofs: dict[str, tuple[ProofStep, ...]] = {}
    for name in list(steps_by_name):
        steps = steps_by_name.pop(name)
        decl = declarations.get(name)
        if decl is None or decl.kind not in PROVABLE_KINDS:
            raise SchemaError("proof for undeclared name" if decl is None
                              else f"proof attached to kind '{decl.kind.value}'",
                              f"{where}.proofs[{name!r}]")
        if not steps:
            raise SchemaError("must list at least one step", f"{where}.proofs[{name!r}]")
        built = []
        for j, step in enumerate(steps):
            try:
                built.append(ProofStep(step["tactic_text"], once(_state(step["state_before"])),
                                       once(_state(step["state_after"])), j))
            except InvalidInput as exc:
                raise _step_error(step, f"{where}.proofs[{name!r}][{j}]", exc) from exc
        proofs[name] = tuple(built)

    return CorpusIndex(declarations, proofs, doc["head_statements"])


def _state(obj: dict) -> ProofState:
    return ProofState(tuple(map(tuple, obj["hypotheses"])), tuple(obj["goals"]))


def _step_error(step: dict, where: str, exc: InvalidInput) -> SchemaError:
    """``exc``, raised building the step ``step`` at ``where``, at the node it
    comes from: a state that repeats a hypothesis name, or else the tactic."""
    for side in ("state_before", "state_after"):
        hypotheses = step[side]["hypotheses"]
        if len({name for name, _ in hypotheses}) < len(hypotheses):
            return SchemaError(str(exc), f"{where}.{side}.hypotheses")
    return SchemaError(str(exc), f"{where}.tactic_text")


def serialize_index(index: CorpusIndex) -> str:
    """Render an index back to the export format with canonical ordering.

    ``parse_jixia_export(serialize_index(x))`` reproduces an equal index.
    """
    return "".join(index_pieces(index))


def index_pieces(index: CorpusIndex) -> Iterator[str]:
    """The text of :func:`serialize_index` in pieces, for writing to a file.

    Each declaration and each proof is encoded on its own, by ``json``'s C
    encoder, so no document tree is built beside the index; joined, the
    pieces are the text ``json.dumps`` gives the whole document.
    """
    encode = _ENCODER.encode
    yield f'{{"schema_version": {encode(SCHEMA_VERSION)}, "declarations": ['
    for i, name in enumerate(sorted(index.declarations)):
        rec = index.declarations[name]
        row = {key: getattr(rec, key) for key in _DECLARATION}
        row["dependencies"] = sorted(rec.dependencies)
        yield ", " if i else ""
        yield encode(row)
    yield '], "proofs": {'
    for i, name in enumerate(sorted(index.proofs)):
        yield f"{', ' if i else ''}{encode(name)}: "
        yield encode([{key: getattr(step, key) for key in _STEP} for step in index.proofs[name]])
    heads = {k: index.head_statements[k] for k in sorted(index.head_statements)}
    yield f'}}, "head_statements": {encode(heads)}}}\n'


# --- raw-source scanner -------------------------------------------------

_HEADER_RE = re.compile(
    r"^(?:@\[[^\]]*\]\s*)?"
    r"(?:(?:private|protected|noncomputable|partial|unsafe|scoped|local)\s+)*"
    r"(theorem|lemma|def|abbrev|instance|class\s+inductive|class|structure|inductive|opaque)"
    r"(?:\s+([^\s(){\[:⦃⟨]+))?"
)

_KIND_FOR_KEYWORD = {
    "theorem": DeclKind.THEOREM,
    "lemma": DeclKind.THEOREM,
    "def": DeclKind.DEFINITION,
    "abbrev": DeclKind.DEFINITION,
    "instance": DeclKind.INSTANCE,
    "structure": DeclKind.STRUCTURE,
    "class": DeclKind.CLASS,
    "class inductive": DeclKind.CLASS_INDUCTIVE,
    "inductive": DeclKind.INDUCTIVE,
    "opaque": DeclKind.OPAQUE,
}

_OPEN_BRACKETS = "([{⟨⦃"
_CLOSE_BRACKETS = ")]}⟩⦄"


@dataclass
class ScanResult:
    """Records found by the scanner plus notes on regions it had to skip."""

    records: list[DeclarationRecord] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    head_statement: str = ""


def _signature_end(text: str) -> tuple[int, bool]:
    """Offset where the signature stops (at ``:=`` or tactic ``by``).

    Returns ``(offset, tactic)``; offset -1 when no terminator exists.
    Bracket-nested occurrences (e.g. default arguments) are ignored.
    """
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _OPEN_BRACKETS:
            depth += 1
        elif ch in _CLOSE_BRACKETS:
            depth = max(0, depth - 1)
        elif depth == 0:
            if text.startswith(":=", i):
                rest = text[i + 2 :].lstrip()
                return i, rest.startswith("by") and (len(rest) == 2 or not rest[2].isidentifier())
            if (
                text.startswith("by", i)
                and (i == 0 or text[i - 1].isspace())
                and (i + 2 == n or text[i + 2].isspace())
            ):
                return i, True
            if text.startswith("where", i) and (i == 0 or text[i - 1].isspace()):
                return i, False
        i += 1
    return -1, False


def scan_declarations(lean_source: str, file_path: str = "<source>") -> ScanResult:
    """Best-effort scan of Lean 4 source for top-level declaration headers.

    Captures the signature up to ``:=``/``by``, the immediately preceding
    ``/-- ... -/`` docstring, and the enclosing namespace path.  Dependencies
    are always empty: the scanner does not elaborate.  Unparseable regions
    are skipped and noted in the diagnostics list.
    """
    lines = lean_source.splitlines()
    result = ScanResult()
    namespace_stack: list[tuple[str, str | None]] = []  # ("namespace"|"section", name)
    pending_docstring: str | None = None
    head_parts: list[str] = []
    seen: dict[str, int] = {}

    i = 0
    while i < len(lines):
        stripped = lines[i].strip()

        if stripped.startswith("/-!") or stripped.startswith("/--"):
            is_module_doc = stripped.startswith("/-!")
            opener = "/-!" if is_module_doc else "/--"
            search_from = lines[i].find(opener) + len(opener)
            block_lines = [lines[i]]
            while "-/" not in (
                block_lines[-1][search_from:] if len(block_lines) == 1 else block_lines[-1]
            ):
                i += 1
                if i >= len(lines):
                    result.diagnostics.append(f"line {len(lines)}: unterminated doc comment")
                    break
                block_lines.append(lines[i])
            text = strip_docstring_markup("\n".join(block_lines))
            if is_module_doc:
                head_parts.append(text)
            else:
                pending_docstring = text
            i += 1
            continue

        if stripped.startswith("namespace "):
            namespace_stack.append(("namespace", stripped.split(None, 1)[1].strip()))
            i += 1
            continue
        if stripped.startswith("section"):
            parts = stripped.split(None, 1)
            namespace_stack.append(("section", parts[1].strip() if len(parts) > 1 else None))
            i += 1
            continue
        if stripped == "end" or stripped.startswith("end "):
            if namespace_stack:
                namespace_stack.pop()
            i += 1
            continue
        if stripped.startswith("@[") and not _HEADER_RE.match(lines[i]):
            # Attribute on its own line; keep any pending docstring alive.
            i += 1
            continue

        m = _HEADER_RE.match(lines[i])
        if m and not lines[i][:1].isspace():
            keyword, name = m.group(1), m.group(2)
            keyword = " ".join(keyword.split())
            start_line = i + 1
            if name is None or name in {":", ":="} or keyword == "instance" and name == ":":
                name = None
            if name is None and keyword != "instance":
                result.diagnostics.append(f"line {start_line}: {keyword} without a name, skipped")
                pending_docstring = None
                i += 1
                continue

            # Accumulate the declaration block up to the next top-level construct.
            block = [lines[i]]
            j = i + 1
            while j < len(lines):
                nxt = lines[j]
                if nxt and not nxt[:1].isspace():
                    s = nxt.strip()
                    first = s.split(None, 1)[0] if s.split() else ""
                    if (
                        _HEADER_RE.match(nxt)
                        or s.startswith(("/--", "/-!", "@[", "#"))
                        or first in (
                            "namespace", "section", "end", "import", "open",
                            "example", "variable", "variables", "universe",
                            "set_option", "attribute", "export", "deriving",
                        )
                    ):
                        break
                block.append(nxt)
                j += 1
            while block and not block[-1].strip():
                block.pop()
            end_line = i + len(block)

            block_text = "\n".join(block)
            header_offset = m.start(1)
            sig_end, tactic = _signature_end(block_text[header_offset:])
            if sig_end == -1:
                signature = block_text[header_offset:].strip()
                tactic = False
            else:
                signature = block_text[header_offset : header_offset + sig_end].strip()

            if name is None:
                name = f"instance_l{start_line}"
            ns = tuple(n for k, n in namespace_stack if k == "namespace" and n)
            full_name = ".".join(ns + (name,))
            if full_name in seen:
                result.diagnostics.append(
                    f"line {start_line}: duplicate name {full_name}, skipped"
                )
            else:
                seen[full_name] = start_line
                result.records.append(
                    DeclarationRecord(
                        full_name=full_name,
                        kind=_KIND_FOR_KEYWORD[keyword],
                        signature=signature,
                        docstring=pending_docstring,
                        namespace_path=ns,
                        file_path=file_path,
                        line_span=(start_line, max(start_line, end_line)),
                        dependencies=_NO_DEPENDENCIES,
                        is_tactic_proof=tactic,
                    )
                )
            pending_docstring = None
            i = j
            continue

        if stripped and pending_docstring is not None and not stripped.startswith("--"):
            # A docstring attaches only to the header immediately after it.
            pending_docstring = None
        i += 1

    result.head_statement = "\n\n".join(head_parts)
    return result


def _by_distance(entries: list[tuple[int, str]], line: int) -> Iterator[str]:
    """Names of sorted (line, name) ``entries`` by distance from ``line``, then by name."""
    cut = bisect.bisect_left(entries, (line,))

    def after():
        for i in range(cut, len(entries)):
            start, name = entries[i]
            yield start - line, name

    def before():
        # Lines descending; each run of one line keeps its names ascending.
        end = cut
        while end > 0:
            start = entries[end - 1][0]
            run = bisect.bisect_left(entries, (start,), 0, end)
            for i in range(run, end):
                yield line - start, entries[i][1]
            end = run

    for _, name in heapq.merge(before(), after()):
        yield name


def resolve_neighbors(subject: str, index: CorpusIndex, limit: int) -> NeighborSet:
    """Find declarations related to ``subject``, a declaration of ``index``,
    by namespace, file, and name.

    Each list is truncated to ``limit`` (at least 1) entries; entries in the
    subject's file sort by line distance first, everything ties broken by
    name.  The name-prefix list holds the declarations sharing the most
    leading name components with ``subject`` (at least one).  Each list
    reads only the subject's pre-ranked group in ``index.neighbor_groups``:
    a bisect on line in its same-file members, then names in order, so a
    lookup costs O(log G + limit) for a group of G names.
    """
    rec = index.declarations[subject]
    groups = index.neighbor_groups

    def nearest(group: NeighborGroup | None) -> tuple[str, ...]:
        if group is None:
            return ()
        same_file = group.lines.get(rec.file_path, [])
        others = (name for name in _by_distance(same_file, rec.line_span[0]) if name != subject)
        found = list(itertools.islice(others, limit))
        if len(found) < limit:
            # Every same-file member is in ``found``; the rest follow by name.
            rest = (
                name
                for name in group.names
                if name != subject and index.declarations[name].file_path != rec.file_path
            )
            found.extend(itertools.islice(rest, limit - len(found)))
        return tuple(found)

    # The subject is in each of its prefix groups that is kept, and each kept
    # group holds someone else, so the longest kept prefix is the longest
    # prefix shared with another name.
    parts = tuple(subject.split("."))
    prefix_shared = None
    for end in range(len(parts), 0, -1):
        prefix_shared = groups.by_prefix.get(parts[:end])
        if prefix_shared is not None:
            break

    return NeighborSet(
        same_namespace=nearest(groups.by_namespace[rec.namespace_path]),
        same_file=nearest(groups.by_file[rec.file_path]),
        name_prefix_shared=nearest(prefix_shared),
    )
