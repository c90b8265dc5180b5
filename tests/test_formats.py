"""Each record format herald writes, byte for byte, and the shape tables its
readers check against the dataclasses they build.

The golden lines pin every field's name, order and JSON spelling, so a writer
that drops, renames or reorders a field fails here; the table tests fail when
a field is added to a dataclass or to its shape alone."""

from __future__ import annotations

from dataclasses import fields

from herald.config import PipelineConfig
from herald.datastore import (
    _PAIR,
    Direction,
    NLFLPair,
    Provenance,
    read_pairs,
    stats,
    stats_to_json,
    write_pairs_atomic,
)
from herald.gateway import _COMPLETION, Completion
from herald.ingest import _DECLARATION, _STATE, parse_jixia_export, serialize_index
from herald.pipeline import run_augment
from herald.records import CorpusIndex, DeclarationRecord, DeclKind, ProofState, ProofStep
from herald.validate import (
    _CANDIDATE,
    _OUTCOME,
    _REPORT,
    BenchmarkSummary,
    CandidateResult,
    CompileOutcome,
    CompileStatus,
    NliStatus,
    ValidationReport,
    read_reports,
    report_line,
    summary_to_json,
)

PAIRS = [
    NLFLPair("s1", "theorem foo (n : ℕ) : n = n", "Für alle n gilt n = n.", Direction.NL_TO_FL,
             Provenance.ORIGINAL, source_name="T.foo", level=2),
    NLFLPair("p1", "by simp", "By simp.", Direction.FL_TO_NL, Provenance.TACTIC_AUG,
             source_name="T.foo", level=10, record_type="proof"),
    NLFLPair("g1", "", "Say hi.", None, Provenance.GENERAL, record_type="instruction"),
]
PAIR_LINES = (
    '{"id": "s1", "formal_text": "theorem foo (n : ℕ) : n = n", "informal_text": '
    '"Für alle n gilt n = n.", "direction": "nl_to_fl", "provenance": "original", '
    '"source_name": "T.foo", "level": 2, "record_type": "statement"}\n'
    '{"id": "p1", "formal_text": "by simp", "informal_text": "By simp.", "direction": '
    '"fl_to_nl", "provenance": "tactic_aug", "source_name": "T.foo", "level": 10, '
    '"record_type": "proof"}\n'
    '{"id": "g1", "formal_text": "", "informal_text": "Say hi.", "direction": null, '
    '"provenance": "general", "source_name": null, "level": null, "record_type": "instruction"}\n'
)
STATS_JSON = (
    '{"by_direction": {"fl_to_nl": 1, "general": 1, "nl_to_fl": 1}, "by_provenance": '
    '{"general": 1, "original": 1, "tactic_aug": 1}, "by_record_type": {"instruction": 1, '
    '"proof": 1, "statement": 1}, "level_histogram": {"10": 1, "2": 1}, "total": 3}'
)

REPORT = ValidationReport(
    "b1", 2,
    (CandidateResult("theorem x : 1 = 2", CompileStatus.FAIL, "type mismatch", None,
                     NliStatus.SKIPPED, False),
     CandidateResult("theorem x : 1 = 1", CompileStatus.PASS, None, "Eins ist eins.",
                     NliStatus.ACCEPT, True)),
    success=True,
)
REPORT_LINE = (
    '{"candidates": [{"back_translation": null, "candidate_text": "theorem x : 1 = 2", '
    '"compile": "fail", "compile_diagnostic": "type mismatch", "final": false, '
    '"nli": "skipped", "nli_parse_failure": false}, {"back_translation": "Eins ist eins.", '
    '"candidate_text": "theorem x : 1 = 1", "compile": "pass", "compile_diagnostic": null, '
    '"final": true, "nli": "accept", "nli_parse_failure": false}], "item_id": "b1", "k": 2, '
    '"short_circuit": true, "success": true}\n'
)
SUMMARY_JSON = '{"accuracy": 0.6666666666666666, "dataset_name": "minif2f", "k": 2, ' \
    '"succeeded": 2, "total": 3}'


def two_declaration_index() -> CorpusIndex:
    """``T.foo`` on ``T.bar``, with a one-step proof from a two-hypothesis state."""
    before = ProofState((("n", "ℕ"), ("h", "0 < n")), ("n ≠ 0",))
    foo = DeclarationRecord("T.foo", DeclKind.THEOREM, "theorem foo (n : ℕ) (h : 0 < n) : n ≠ 0",
                            None, ("T",), "T.lean", (3, 4), frozenset({"T.bar"}), True)
    bar = DeclarationRecord("T.bar", DeclKind.DEFINITION, "def bar : ℕ := 1", "The `bar`.",
                            ("T",), "T.lean", (1, 1), frozenset(), False)
    return CorpusIndex({"T.foo": foo, "T.bar": bar},
                       {"T.foo": (ProofStep("omega", before, ProofState(), 0),)},
                       {"T.lean": "import Mathlib\nopen Nat\n\nnamespace T"})


INDEX_JSON = (
    '{"schema_version": "1", "declarations": [{"full_name": "T.bar", "kind": "definition", '
    '"signature": "def bar : ℕ := 1", "docstring": "The `bar`.", "namespace_path": ["T"], '
    '"file_path": "T.lean", "line_span": [1, 1], "dependencies": [], "is_tactic_proof": false}, '
    '{"full_name": "T.foo", "kind": "theorem", "signature": "theorem foo (n : ℕ) (h : 0 < n) : '
    'n ≠ 0", "docstring": null, "namespace_path": ["T"], "file_path": "T.lean", "line_span": '
    '[3, 4], "dependencies": ["T.bar"], "is_tactic_proof": true}], "proofs": {"T.foo": '
    '[{"tactic_text": "omega", "state_before": {"hypotheses": [["n", "ℕ"], ["h", "0 < n"]], '
    '"goals": ["n ≠ 0"]}, "state_after": {"hypotheses": [], "goals": []}}]}, '
    '"head_statements": {"T.lean": "import Mathlib\\nopen Nat\\n\\nnamespace T"}}\n'
)
SYNTHESIZED_LINE = (
    '{"name": "T.foo_tac_0", "formal_text": "theorem T.foo_tac_0 (n : ℕ) (h : 0 < n) : '
    'n ≠ 0 := by sorry", "origin": "T.foo", "origin_step": 0, "goal_index": 0, '
    '"context_preamble": "import Mathlib\\nopen Nat"}\n'
)


def test_pair_lines_and_stats(tmp_path):
    path = tmp_path / "pairs.jsonl"
    write_pairs_atomic(PAIRS, path)
    assert path.read_text(encoding="utf-8") == PAIR_LINES
    assert read_pairs(path) == PAIRS
    assert stats_to_json(stats(path)) == STATS_JSON


def test_report_line_and_summary(tmp_path):
    assert report_line(REPORT) == REPORT_LINE
    path = tmp_path / "reports.jsonl"
    path.write_text(REPORT_LINE, encoding="utf-8")
    assert list(read_reports(path)) == [REPORT]
    assert summary_to_json(BenchmarkSummary("minif2f", 3, 2, 2 / 3, 2)) == SUMMARY_JSON


def test_index_json():
    index = two_declaration_index()
    assert serialize_index(index) == INDEX_JSON
    assert parse_jixia_export(INDEX_JSON) == index


def test_synthesized_row(tmp_path):
    run_augment(two_declaration_index(), PipelineConfig(), tmp_path, tactic=True)
    assert (tmp_path / "synthesized.jsonl").read_text(encoding="utf-8") == SYNTHESIZED_LINE


def test_shape_tables_list_their_dataclass_fields_in_order():
    for shape, cls in ((_PAIR, NLFLPair), (_DECLARATION, DeclarationRecord),
                       (_STATE, ProofState), (_COMPLETION, Completion),
                       (_OUTCOME, CompileOutcome)):
        assert list(shape) == [f.name for f in fields(cls)]


def test_report_shapes_list_their_dataclass_fields():
    for shape, cls in ((_REPORT, ValidationReport), (_CANDIDATE, CandidateResult)):
        assert set(shape) == {f.name for f in fields(cls)}
