"""Export parsing, the source scanner, and neighbor resolution."""

from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest
from conftest import make_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from herald.config import PipelineConfig
from herald.errors import SchemaError
from herald.ingest import (
    parse_jixia_export,
    resolve_neighbors,
    scan_declarations,
    serialize_index,
)
from herald.pipeline import run_ingest, run_stratify
from herald.records import CorpusIndex, DeclarationRecord, DeclKind, NeighborSet

DATA = Path(__file__).parent / "data"


def minimal_export(declarations, proofs=None, heads=None) -> str:
    return json.dumps(
        {
            "schema_version": "1",
            "declarations": declarations,
            "proofs": proofs or {},
            "head_statements": heads or {},
        }
    )


def decl_obj(full_name, kind="theorem", deps=(), **overrides) -> dict:
    obj = {
        "full_name": full_name,
        "kind": kind,
        "signature": f"{kind} {full_name} : True",
        "docstring": None,
        "namespace_path": full_name.split(".")[:-1],
        "file_path": "Test.lean",
        "line_span": [1, 2],
        "dependencies": list(deps),
        "is_tactic_proof": False,
    }
    obj.update(overrides)
    return obj


class TestParseExport:
    def test_two_theorems_one_crossref(self):
        index = parse_jixia_export(
            minimal_export([decl_obj("A"), decl_obj("B", deps=["A"])])
        )
        assert len(index.declarations) == 2
        assert index.declarations["B"].dependencies == {"A"}

    def test_out_of_enum_kind_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_jixia_export(minimal_export([decl_obj("A", kind="axiom")]))
        assert "axiom" in str(exc.value)
        assert ".kind" in exc.value.path

    def test_dite_fixture(self):
        index = parse_jixia_export((DATA / "dite_export.json").read_bytes())
        rec = index.declarations["dite_eq_or_eq"]
        assert rec.kind == DeclKind.THEOREM
        assert rec.docstring
        assert "if-then-else" in rec.docstring
        # the docstring delimiters are markup, stripped at ingestion
        assert not rec.docstring.startswith("/--")
        steps = index.proofs["dite_eq_or_eq"]
        assert [s.step_index for s in steps] == [0, 1]
        assert steps[1].state_after.goals == ()

    def test_duplicate_declaration(self):
        with pytest.raises(SchemaError) as exc:
            parse_jixia_export(minimal_export([decl_obj("A"), decl_obj("B"), decl_obj("A")]))
        assert exc.value.path == "$.declarations[2].full_name"
        assert "'A' repeats declarations[0]" in str(exc.value)

    def test_missing_field_names_json_path(self):
        broken = decl_obj("A")
        del broken["signature"]
        with pytest.raises(SchemaError) as exc:
            parse_jixia_export(minimal_export([broken]))
        assert "$.declarations[0]" in exc.value.path

    def test_empty_signature_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_jixia_export(minimal_export([decl_obj("A"), decl_obj("B", signature="")]))
        assert exc.value.path == "$.declarations[1].signature"

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_jixia_export(minimal_export([decl_obj("A", surprise=1)]))

    def test_not_json(self):
        with pytest.raises(SchemaError):
            parse_jixia_export(b"not json at all {")

    def test_wrong_schema_version(self):
        doc = json.loads(minimal_export([]))
        doc["schema_version"] = "7"
        with pytest.raises(SchemaError):
            parse_jixia_export(json.dumps(doc))

    def test_dangling_dependency_is_warning_not_error(self, tmp_path, caplog):
        export = tmp_path / "export.json"
        export.write_text(minimal_export([
            decl_obj("B", deps=["Gone.lemma", "A", "Ext.b"]),
            decl_obj("A", deps=["Zed.x", "Ext.a"]),
        ]), encoding="utf-8")
        config = PipelineConfig(corpus_export=export)
        with caplog.at_level(logging.WARNING, logger="herald.pipeline"):
            index = run_ingest(config, tmp_path / "ingest")
        assert index.declarations["A"].dependencies == {"Zed.x", "Ext.a"}
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "unresolved dependency 'Ext.a' of 'A'",
            "unresolved dependency 'Zed.x' of 'A'",
            "unresolved dependency 'Ext.b' of 'B'",
            "unresolved dependency 'Gone.lemma' of 'B'",
        ]
        manifest = json.loads((tmp_path / "ingest" / "ingest_run_manifest.json").read_text())
        assert manifest["warnings"] == 4
        run_stratify(index, config, tmp_path / "stratify")
        levels = json.loads((tmp_path / "stratify" / "levels.json").read_text())
        assert levels["unresolved_dependencies"] == 4
        assert levels["levels"] == [["A"], ["B"]]

    def test_self_dependency_rejected(self):
        with pytest.raises(SchemaError):
            parse_jixia_export(minimal_export([decl_obj("A", deps=["A"])]))

    def test_proof_on_definition_rejected(self):
        export = minimal_export(
            [decl_obj("A", kind="definition")],
            proofs={
                "A": [
                    {
                        "tactic_text": "rfl",
                        "state_before": {"hypotheses": [], "goals": ["True"]},
                        "state_after": {"hypotheses": [], "goals": []},
                    }
                ]
            },
        )
        with pytest.raises(SchemaError):
            parse_jixia_export(export)

    def test_proof_for_unknown_name_rejected(self):
        export = minimal_export(
            [decl_obj("A")],
            proofs={"B": []},
        )
        with pytest.raises(SchemaError):
            parse_jixia_export(export)

    def test_round_trip_on_fixture(self):
        index = make_corpus(30)
        text = serialize_index(index)
        assert parse_jixia_export(text) == index
        assert text == json.dumps(json.loads(text), ensure_ascii=False) + "\n"

    def test_round_trip_on_dite_fixture(self):
        index = parse_jixia_export((DATA / "dite_export.json").read_bytes())
        assert parse_jixia_export(serialize_index(index)) == index


_name = st.from_regex(r"[A-Z][a-z]{1,6}(\.[a-z][a-z0-9]{1,6}){0,2}", fullmatch=True)


@st.composite
def _exports(draw):
    names = draw(st.lists(_name, min_size=0, max_size=12, unique=True))
    decls = []
    for i, name in enumerate(names):
        deps = draw(
            st.lists(st.sampled_from(names[:i] + ["Other.thing"]), max_size=3, unique=True)
            if i
            else st.just([])
        )
        start = draw(st.integers(1, 500))
        decls.append(
            decl_obj(
                name,
                kind=draw(st.sampled_from([k.value for k in DeclKind])),
                deps=[d for d in deps if d != name],
                line_span=[start, start + draw(st.integers(0, 40))],
                docstring=draw(st.none() | st.text(max_size=40)),
            )
        )
    return minimal_export(decls)


@settings(max_examples=60, deadline=None)
@given(_exports())
def test_parser_total_over_schema(export_text):
    index = parse_jixia_export(export_text)
    # canonical round-trip, in the text json.dumps gives the whole document
    text = serialize_index(index)
    assert parse_jixia_export(text) == index
    assert text == json.dumps(json.loads(text), ensure_ascii=False) + "\n"


class TestScanner:
    def test_single_theorem(self):
        result = scan_declarations("theorem t (p : Prop) : p → p := by intro h; exact h")
        [rec] = result.records
        assert rec.kind == DeclKind.THEOREM
        assert rec.full_name == "t"
        assert rec.is_tactic_proof
        assert rec.signature == "theorem t (p : Prop) : p → p"
        assert rec.dependencies == frozenset()

    def test_eight_theorems_with_docstrings(self):
        source = (DATA / "normal_extensions.lean").read_text(encoding="utf-8")
        result = scan_declarations(source, file_path="NormalExtensions.lean")
        assert len(result.records) == 8
        for rec in result.records:
            assert rec.kind == DeclKind.THEOREM
            assert rec.docstring, rec.full_name
        names = [r.full_name for r in result.records]
        assert names[0] == "tower_top_of_normal"
        assert "card_aut_le_finrank_tac_1714" in names

    def test_empty_file(self):
        result = scan_declarations("")
        assert result.records == []
        assert result.diagnostics == []

    def test_scanner_idempotent_on_signatures(self):
        sources = [
            (DATA / "normal_extensions.lean").read_text(encoding="utf-8"),
            "structure Pair (α : Type) where\n  fst : α\n\n"
            "instance : Inhabited Nat := ⟨0⟩\n\n"
            "class inductive Tree where\n  | leaf\n\n"
            "opaque secret : Nat\n\n"
            "noncomputable def weird (n : Nat) : Nat :=\n  n + 1\n",
        ]
        for source in sources:
            records = scan_declarations(source).records
            assert records
            for rec in records:
                again = scan_declarations(rec.signature).records
                assert len(again) == 1
                assert again[0].signature == rec.signature

    def test_namespace_tracking(self):
        source = (
            "namespace Outer\n"
            "namespace Inner\n"
            "/-- doubles its input -/\n"
            "def twice (n : Nat) : Nat := 2 * n\n"
            "end Inner\n"
            "theorem t : True := trivial\n"
            "end Outer\n"
        )
        records = scan_declarations(source).records
        by_name = {r.full_name: r for r in records}
        assert set(by_name) == {"Outer.Inner.twice", "Outer.t"}
        assert by_name["Outer.Inner.twice"].kind == DeclKind.DEFINITION
        assert by_name["Outer.Inner.twice"].docstring == "doubles its input"
        assert by_name["Outer.Inner.twice"].namespace_path == ("Outer", "Inner")
        assert not by_name["Outer.Inner.twice"].is_tactic_proof

    def test_module_doc_collected_as_head(self):
        source = "/-! Basic facts. -/\n\ntheorem a : True := trivial\n"
        result = scan_declarations(source)
        assert result.head_statement == "Basic facts."
        assert result.records[0].docstring is None

    def test_structure_and_instance(self):
        source = (
            "structure Pair (α : Type) where\n"
            "  fst : α\n"
            "  snd : α\n"
            "\n"
            "instance : Inhabited (Pair Nat) := ⟨⟨0, 0⟩⟩\n"
        )
        records = scan_declarations(source).records
        kinds = {r.full_name: r.kind for r in records}
        assert kinds["Pair"] == DeclKind.STRUCTURE
        assert DeclKind.INSTANCE in kinds.values()

    def test_multiline_signature(self):
        source = (
            "theorem long_one (a b : Nat)\n"
            "    (h : a = b) :\n"
            "    b = a := by\n"
            "  exact h.symm\n"
        )
        [rec] = scan_declarations(source).records
        assert rec.signature.endswith("b = a")
        assert rec.is_tactic_proof
        assert rec.line_span == (1, 4)


def scan_neighbors(subject: str, index: CorpusIndex, limit: int) -> NeighborSet:
    """Oracle: the whole-corpus scan ``resolve_neighbors`` replaced."""
    rec = index.declarations[subject]

    def order_key(name: str):
        other = index.declarations[name]
        if other.file_path == rec.file_path:
            return (0, abs(other.line_span[0] - rec.line_span[0]), name)
        return (1, 0, name)

    same_namespace = []
    same_file = []
    prefix_len: dict[str, int] = {}
    subject_parts = subject.split(".")
    for name, other in index.declarations.items():
        if name == subject:
            continue
        if other.namespace_path == rec.namespace_path:
            same_namespace.append(name)
        if other.file_path == rec.file_path:
            same_file.append(name)
        shared = 0
        for a, b in zip(subject_parts, name.split(".")):
            if a != b:
                break
            shared += 1
        if shared >= 1:
            prefix_len[name] = shared

    longest = max(prefix_len.values(), default=0)
    prefix_shared = [n for n, length in prefix_len.items() if length == longest] if longest else []
    return NeighborSet(
        same_namespace=tuple(sorted(same_namespace, key=order_key)[:limit]),
        same_file=tuple(sorted(same_file, key=order_key)[:limit]),
        name_prefix_shared=tuple(sorted(prefix_shared, key=order_key)[:limit]),
    )


@st.composite
def _neighbor_corpora(draw):
    """Small corpora dense in shared files, namespaces and name prefixes,
    with nested names (``A.b`` next to ``A.b.c``) and equal line starts."""
    names = draw(
        st.lists(
            st.lists(st.sampled_from(["A", "b", "c", "Nat"]), min_size=1, max_size=4).map(".".join),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    declarations = {}
    for name in names:
        start = draw(st.integers(1, 12))
        declarations[name] = DeclarationRecord(
            full_name=name,
            kind=DeclKind.THEOREM,
            signature="True",
            docstring=None,
            namespace_path=draw(st.sampled_from([(), ("A",), ("A", "b"), ("Nat",)])),
            file_path=draw(st.sampled_from(["X.lean", "Y.lean", "Z.lean"])),
            line_span=(start, start + 1),
            dependencies=frozenset(),
            is_tactic_proof=False,
        )
    return CorpusIndex(declarations=declarations)


@settings(max_examples=150, deadline=None)
@given(_neighbor_corpora(), st.integers(1, 6))
def test_indexed_neighbors_equal_the_scan(index, limit):
    for subject in index.declarations:
        assert resolve_neighbors(subject, index, limit) == scan_neighbors(subject, index, limit)


class TestResolveNeighbors:
    def test_no_namespace_siblings(self):
        index = parse_jixia_export(
            minimal_export(
                [
                    decl_obj("Solo.x", file_path="A.lean"),
                    decl_obj("Other.y", file_path="B.lean"),
                ]
            )
        )
        neighbors = resolve_neighbors("Solo.x", index, limit=5)
        assert neighbors.same_namespace == ()

    def test_forced_by_definition(self):
        index = parse_jixia_export(
            minimal_export(
                [
                    decl_obj("A.b", file_path="One.lean"),
                    decl_obj("A.c", file_path="One.lean"),
                ]
            )
        )
        neighbors = resolve_neighbors("A.b", index, limit=5)
        assert neighbors.same_namespace == ("A.c",)
        assert neighbors.same_file == ("A.c",)
        assert neighbors.name_prefix_shared == ("A.c",)

    def test_limit_and_brute_force_sets(self):
        index = make_corpus(10)
        limit = 3
        for subject, rec in index.declarations.items():
            neighbors = resolve_neighbors(subject, index, limit=limit)
            # brute-force enumeration over the fixture
            expected_ns = {
                n
                for n, r in index.declarations.items()
                if n != subject and r.namespace_path == rec.namespace_path
            }
            expected_file = {
                n
                for n, r in index.declarations.items()
                if n != subject and r.file_path == rec.file_path
            }
            for got, expected in (
                (neighbors.same_namespace, expected_ns),
                (neighbors.same_file, expected_file),
            ):
                assert len(got) <= limit
                assert set(got) <= expected
                assert len(got) == min(limit, len(expected))
            names = (
                set(neighbors.same_namespace)
                | set(neighbors.same_file)
                | set(neighbors.name_prefix_shared)
            )
            assert subject not in names
            assert names <= set(index.declarations)

    def test_longest_prefix_wins(self):
        index = parse_jixia_export(
            minimal_export(
                [
                    decl_obj("A.b.c"),
                    decl_obj("A.b.d"),
                    decl_obj("A.e"),
                    decl_obj("Z.z"),
                ]
            )
        )
        neighbors = resolve_neighbors("A.b.c", index, limit=5)
        # A.b.d shares two components, A.e only one: keep the longest only
        assert neighbors.name_prefix_shared == ("A.b.d",)
