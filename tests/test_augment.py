"""Tactic-state statement synthesis, compile filtering, dedup sampling,
the four informal-variant strategies, the seeded strategy draw and
augment's concurrent dispatch."""

from __future__ import annotations

import random
import re
import tempfile
import threading
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest
from conftest import make_corpus, tree_digest
from hypothesis import given, settings
from hypothesis import strategies as st

from herald.augment import (
    STRATEGIES,
    compile_filter,
    dedup_sample,
    differs,
    extract_preamble,
    informal_variants,
    strategy_order,
    strategy_prompt,
    synthesize_for_index,
    synthesize_from_state,
    write_rejected_report,
)
from herald.config import PipelineConfig, RoleConfig
from herald.datastore import Direction, NLFLPair, Provenance, read_pairs
from herald.gateway import (
    STRATEGY_MARKER,
    STRATEGY_TEXT_MARKER,
    Completion,
    Gateway,
    MockAugmenter,
    MockInformalizer,
    Role,
    _section_after,
)
from herald.ingest import scan_declarations
from herald.pipeline import run_augment
from herald.records import CorpusIndex, DeclKind, ProofState
from herald.validate import MockCompilerBackend

TAGS = [tag for tag, _ in STRATEGIES]

RUNNING_EXAMPLE_STATE = ProofState(
    hypotheses=(("p", "Prop"), ("q", "Prop"), ("r", "Prop"), ("h", "p ∧ q ∧ r")),
    goals=("q ∧ p ∧ r",),
)


class TestSynthesize:
    def test_running_example_exact_text(self):
        [stmt] = synthesize_from_state(RUNNING_EXAMPLE_STATE, origin="ex", step=0)
        assert stmt.formal_text == (
            "theorem ex_tac_0 (p : Prop) (q : Prop) (r : Prop) (h : p ∧ q ∧ r) "
            ": q ∧ p ∧ r := by sorry"
        )
        assert stmt.name == "ex_tac_0"
        assert stmt.origin == "ex"
        assert stmt.origin_step == 0
        assert stmt.goal_index == 0

    def test_closed_state_yields_nothing(self):
        assert synthesize_from_state(ProofState(goals=()), "ex", 3) == []

    def test_two_goals_two_statements(self):
        state = ProofState(hypotheses=(("n", "ℕ"),), goals=("n = n", "0 ≤ n"))
        stmts = synthesize_from_state(state, "two", 5)
        assert [s.goal_index for s in stmts] == [0, 1]
        assert stmts[0].name == "two_tac_5"
        assert stmts[1].name == "two_tac_5_g1"
        assert "n = n" in stmts[0].formal_text
        assert "0 ≤ n" in stmts[1].formal_text

    def test_instance_hypotheses_render_as_instance_binders(self):
        state = ProofState(
            hypotheses=(("F", "Type u"), ("inst✝", "Field F"), ("a", "F")),
            goals=("a * a⁻¹ = 1 ∨ a = 0",),
        )
        [stmt] = synthesize_from_state(state, "fld", 1)
        assert "(F : Type u) [Field F] (a : F)" in stmt.formal_text

    def test_anonymous_names_regenerated(self):
        state = ProofState(
            hypotheses=(("h✝¹", "p"), ("h✝", "q"), ("h1", "r")),
            goals=("p ∧ q",),
        )
        [stmt] = synthesize_from_state(state, "anon", 0)
        # h1 is taken, so the anonymous ones become h2 and h3
        assert "(h2 : p) (h3 : q) (h1 : r)" in stmt.formal_text

    def test_no_hypotheses(self):
        [stmt] = synthesize_from_state(ProofState(goals=("True",)), "none", 0)
        assert stmt.formal_text == "theorem none_tac_0 : True := by sorry"


class TestScannerRoundTrip:
    def test_fifty_proof_fixture(self):
        index = make_corpus(50)
        statements = synthesize_for_index(index)
        assert statements
        for stmt in statements:
            result = scan_declarations(stmt.formal_text)
            assert len(result.records) == 1, stmt.formal_text
            rec = result.records[0]
            assert rec.kind == DeclKind.THEOREM
            assert rec.full_name == stmt.name
            assert rec.is_tactic_proof

    def test_binder_order_equals_hypothesis_order(self):
        index = make_corpus(50)
        by_name = {}
        for name in index.tactic_proof_names():
            for step in index.proofs[name]:
                for stmt in synthesize_from_state(step.state_before, name, step.step_index):
                    by_name[stmt.name] = (stmt, step.state_before)
        assert by_name
        for stmt, state in by_name.values():
            binder_types = re.findall(r"[(\[]\s*(?:[^:()\[\]]+:\s*)?([^()\[\]]+?)\s*[)\]]", stmt.formal_text)
            expected = [t for _, t in state.hypotheses]
            assert binder_types[: len(expected)] == expected

    def test_preamble_attached_from_head_statements(self):
        index = make_corpus(10)
        statements = synthesize_for_index(index)
        assert any("import Mathlib" in s.context_preamble for s in statements)

    def test_extract_preamble(self):
        head = "import Mathlib\nopen Topology\n\nProse explaining the file."
        assert extract_preamble(head) == "import Mathlib\nopen Topology"


class TestCompileFilter:
    def test_partition_is_exhaustive(self):
        stmts = synthesize_from_state(RUNNING_EXAMPLE_STATE, "ex", 0)
        stmts += synthesize_from_state(ProofState(goals=("broken (",)), "bad", 0)
        backend = MockCompilerBackend(default_ok=False)
        backend.script(stmts[0].formal_text, True)
        valid, rejected = compile_filter(stmts, backend)
        assert [s.name for s in valid] == ["ex_tac_0"]
        assert [r.statement.name for r in rejected] == ["bad_tac_0"]
        assert rejected[0].diagnostic

    def test_preamble_prepended_for_check(self):
        state = ProofState(goals=("True",))
        [stmt] = synthesize_from_state(state, "pre", 0, context_preamble="import Mathlib")
        backend = MockCompilerBackend(default_ok=False)
        backend.script("import Mathlib\n\n" + stmt.formal_text, True)
        valid, rejected = compile_filter([stmt], backend)
        assert valid == [stmt]

    def test_empty_candidates(self):
        assert compile_filter([], MockCompilerBackend()) == ([], [])

    def test_rejected_report(self, tmp_path):
        stmts = synthesize_from_state(ProofState(goals=("nope",)), "r", 0)
        backend = MockCompilerBackend(default_ok=False)
        _, rejected = compile_filter(stmts, backend)
        path = tmp_path / "rejected.jsonl"
        assert write_rejected_report(rejected, path) == 1
        assert "not in scripted pass set" in path.read_text(encoding="utf-8")


class TestDedupSample:
    def test_keeps_all_when_pool_fits(self):
        items = list(range(10))
        assert dedup_sample(items, 10, seed=1) == items

    def test_deterministic(self):
        items = list(range(100))
        assert dedup_sample(items, 20, seed=7) == dedup_sample(items, 20, seed=7)

    def test_preserves_input_order(self):
        items = list(range(50))
        sampled = dedup_sample(items, 12, seed=3)
        assert sampled == sorted(sampled)

    def test_monte_carlo_selection_frequency(self):
        pool = list(range(1000))
        hits = [0] * 1000
        runs = 200
        for seed in range(runs):
            for item in dedup_sample(pool, 250, seed=seed):
                hits[item] += 1
        for count in hits:
            assert abs(count / runs - 0.25) <= 0.05

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(), max_size=40),
        st.integers(0, 50),
        st.integers(0, 2**16),
    )
    def test_no_duplicates_no_invention(self, items, n, seed):
        sampled = dedup_sample(items, n, seed)
        assert len(sampled) == min(n, len(items))
        seen_positions = set()
        cursor = 0
        for value in sampled:
            cursor = items.index(value, cursor)
            assert cursor not in seen_positions
            seen_positions.add(cursor)
            cursor += 1


def pair(informal: str, pid: str = "p0") -> NLFLPair:
    return NLFLPair(
        id=pid,
        formal_text="theorem t : True",
        informal_text=informal,
        direction=Direction.NL_TO_FL,
        provenance=Provenance.ORIGINAL,
    )


class TestInformalVariants:
    def _role(self):
        return Role(provider=MockAugmenter(), model_id="mock-augmenter")

    def _variants(self, source, order, role=None):
        """informal_variants over ``role``'s answers, asked in strategy order
        up to the first that differs, as run_augment asks them."""
        role = role or self._role()
        answers = []
        # A fresh cache per call, so a second call asks the role again.
        with (tempfile.TemporaryDirectory() as out,
              closing(Gateway(PipelineConfig(max_in_flight=2), out)) as gw):
            for strategy in order:
                prompt_text = strategy_prompt(strategy, source.informal_text)
                answers.append(gw.submit_role(role, prompt_text).result().text.strip())
                if differs(source, answers[-1]):
                    break
        return informal_variants(source, order, answers)

    def test_logical_equivalence_shape(self):
        strategy = TAGS.index("logical_equivalence_rewriting")
        batch = self._variants(pair("If A, then B."), [strategy])
        [(kept, text)] = batch.variants
        assert text == "B holds given A."
        assert kept == strategy

    def test_abstract_concept_substitution(self):
        text = (
            "For given matrix $A$, there exists a matrix $B$, such that $A B = B A = I$."
        )
        strategy = TAGS.index("abstract_concept_substitution")
        batch = self._variants(pair(text), [strategy])
        [(_, variant_text)] = batch.variants
        assert "non-degenerate" in variant_text

    def test_multilingual_mock_is_tagged_and_deterministic(self):
        strategy = TAGS.index("multi_linguistic_translation zh")
        one = self._variants(pair("Groups are monoids."), [strategy])
        two = self._variants(pair("Groups are monoids."), [strategy])
        assert one.variants[0][1] == two.variants[0][1]
        assert one.variants[0][1].startswith("[zh] ")

    def test_identity_outputs_dropped_and_counted(self):
        class EchoProvider:
            name = "echo"

            def generate(self, request, sample_index):
                return Completion(text=_section_after(request.prompt_text, STRATEGY_TEXT_MARKER))

        order = list(range(len(STRATEGIES)))
        batch = self._variants(
            pair("Unchanged text."), order, Role(provider=EchoProvider(), model_id="echo")
        )
        assert batch.attempted == len(order)
        assert batch.dropped == len(order)
        assert batch.variants == ()

    def test_counts_conserved(self):
        # The walk stops at the first variant kept: the mock rewrites every
        # strategy, so the first is kept and the other five are never asked.
        order = list(range(len(STRATEGIES)))
        batch = self._variants(pair("If A, then B."), order)
        assert batch.attempted == 1
        assert batch.attempted == len(batch.variants) + batch.dropped
        assert [kept for kept, _ in batch.variants] == order[:1]

    def test_first_answer_that_differs_is_kept(self):
        # Whitespace and case do not make an answer differ.
        order = list(range(len(STRATEGIES)))
        batch = informal_variants(pair("If A, then B."), order, ["if a,  then b.", "B if A."])
        assert (batch.attempted, batch.dropped) == (2, 1)
        [variant] = batch.variants
        assert variant == (order[1], "B if A.")

    def test_exactly_four_families_three_languages(self):
        assert len({tag.split()[0] for tag in TAGS}) == 4
        translation = [tag.split()[1] for tag in TAGS if len(tag.split()) > 1]
        assert sorted(translation) == ["fr", "ru", "zh"]

    def test_prompt_carries_strategy_tag(self):
        text = strategy_prompt(TAGS.index("multi_linguistic_translation ru"), "Some claim.")
        assert "multi_linguistic_translation ru" in text
        assert "Some claim." in text


def test_the_six_strategies_in_their_fixed_order():
    # A kept variant is named by its index in this order (``{id}__var{j}``),
    # so the order is part of every informal_aug.jsonl.
    assert TAGS == [
        "logical_equivalence_rewriting",
        "abstract_concept_substitution",
        "omission_of_implicit_condition",
        "multi_linguistic_translation zh",
        "multi_linguistic_translation fr",
        "multi_linguistic_translation ru",
    ]


@pytest.mark.parametrize("pair_id, seed, order", [
    ("s0", 0, [1, 2, 4, 3, 5, 0]),
    ("Alg.Group.item07", 17, [5, 3, 1, 2, 4, 0]),
    ("thm_x__proof", 123456789, [1, 5, 0, 4, 2, 3]),
])
def test_strategy_order_is_a_fixed_seeded_permutation(pair_id, seed, order):
    assert strategy_order(pair_id, seed) == order


# --- the strategy draw, through run_augment -------------------------------------

TRANSLATION = "multi_linguistic_translation"


class LoggingAugmenter(MockAugmenter):
    """The mock augmenter, logging (statement text, strategy tag) per call,
    that echoes the statement back for every strategy of a family in ``echo``."""

    def __init__(self, echo=()):
        self.echo = set(echo)
        self.calls: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def generate(self, request, sample_index):
        tag = _section_after(request.prompt_text, STRATEGY_MARKER)
        text = _section_after(request.prompt_text, STRATEGY_TEXT_MARKER)
        with self._lock:
            self.calls.append((text, tag))
        if tag.split()[0] in self.echo:
            return Completion(text=text)
        return super().generate(request, sample_index)


@dataclass(frozen=True)
class LoggingRole(RoleConfig):
    augmenter: LoggingAugmenter = field(default_factory=LoggingAugmenter)

    def build(self, role_name):
        return replace(super().build(role_name), provider=self.augmenter)


def statements(n: int) -> list[NLFLPair]:
    return [
        NLFLPair(id=f"s{i}", formal_text=f"theorem s{i} : True",
                 informal_text=f"Statement {i} holds.", direction=Direction.NL_TO_FL,
                 provenance=Provenance.ORIGINAL)
        for i in range(n)
    ]


@dataclass
class Draw:
    counts: dict
    kept: list[tuple[str, str]]  # (statement id, strategy tag) in file order
    asked: dict[str, list[str]]  # statement id -> strategy tags in call order


def draw(out: Path, pairs: list[NLFLPair], echo=(), seed: int = 0) -> Draw:
    augmenter = LoggingAugmenter(echo)
    config = PipelineConfig(roles={"augmenter": LoggingRole(augmenter=augmenter)},
                            dedup_seed=seed)
    counts = run_augment(CorpusIndex({}), config, out, tactic=False, informal=True,
                         original_pairs=pairs)
    kept = []
    for record in read_pairs(out / "informal_aug.jsonl"):
        pid, j = record.id.rsplit("__var", 1)
        kept.append((pid, TAGS[int(j)]))
    by_text = {p.informal_text: p.id for p in pairs}
    asked: dict[str, list[str]] = {}
    for text, tag in augmenter.calls:
        asked.setdefault(by_text[text], []).append(tag)
    return Draw(counts, kept, asked)


class TestStrategyDraw:
    def test_one_record_per_statement_in_source_order(self, tmp_path):
        pairs = statements(30)
        result = draw(tmp_path / "aug", pairs)
        assert [pid for pid, _ in result.kept] == [p.id for p in pairs]
        assert result.counts["informal_aug_pairs"] == len(pairs)

    def test_calls_are_one_per_statement_plus_one_per_drop(self, tmp_path):
        pairs = statements(30)
        result = draw(tmp_path / "aug", pairs, echo={TRANSLATION})
        calls = sum(len(tags) for tags in result.asked.values())
        echoed = sum(tag.startswith(TRANSLATION) for tags in result.asked.values()
                     for tag in tags)
        assert echoed > 0
        assert result.counts["variants_dropped"] == echoed
        assert calls == len(pairs) + result.counts["variants_dropped"]
        assert result.counts["variants_attempted"] == calls

    def test_an_echoed_family_is_skipped_for_the_next_strategy_in_order(self, tmp_path):
        pairs = statements(30)
        # Every strategy echoed: each statement is asked all six, in its order.
        full = draw(tmp_path / "all", pairs, echo={tag.split()[0] for tag in TAGS})
        assert full.kept == [] and full.counts["variants_dropped"] == 6 * len(pairs)
        assert all(sorted(tags) == sorted(TAGS) for tags in full.asked.values())

        result = draw(tmp_path / "aug", pairs, echo={TRANSLATION})
        for pid, tag in result.kept:
            order = full.asked[pid]
            expected = next(t for t in order if not t.startswith(TRANSLATION))
            assert tag == expected
            assert result.asked[pid] == order[: order.index(expected) + 1]

    def test_a_statements_draw_depends_on_itself_and_the_seed_alone(self, tmp_path):
        pairs = statements(30)
        together = dict(draw(tmp_path / "all", pairs).kept)
        for i in (0, 7, 29):
            [(pid, tag)] = draw(tmp_path / f"alone{i}", [pairs[i]]).kept
            assert together[pid] == tag
        reseeded = dict(draw(tmp_path / "seed1", pairs, seed=1).kept)
        assert reseeded != together

    def test_each_strategy_is_kept_a_fair_share_of_the_time(self, tmp_path):
        n = 600
        kept = Counter(tag for _, tag in draw(tmp_path / "aug", statements(n)).kept)
        assert set(kept) == set(TAGS)
        assert all(n / 12 <= kept[tag] <= n / 4 for tag in TAGS), kept


# --- augment's dispatch -----------------------------------------------------------


class JitteredAugmenter(LoggingAugmenter):
    """The logging augmenter with seeded, jittered latency per prompt, that
    keeps the peak number of its calls in flight."""

    def __init__(self, echo=(), jitter_s: float = 0.002):
        super().__init__(echo)
        self.jitter_s = jitter_s
        self.in_flight = self.peak = 0

    def generate(self, request, sample_index):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(random.Random(request.prompt_text).uniform(0, self.jitter_s))
            return super().generate(request, sample_index)
        finally:
            with self._lock:
                self.in_flight -= 1


class JitteredInformalizer(MockInformalizer):
    def generate(self, request, sample_index):
        time.sleep(random.Random(request.prompt_text).uniform(0, 0.002))
        return super().generate(request, sample_index)


@dataclass(frozen=True)
class JitteredInformalizerRole(RoleConfig):
    informalizer: JitteredInformalizer = field(default_factory=JitteredInformalizer)

    def build(self, role_name):
        return replace(super().build(role_name), provider=self.informalizer)


def test_augment_keeps_up_to_max_in_flight_calls_in_flight(tmp_path):
    augmenter = JitteredAugmenter(jitter_s=0.01)
    config = PipelineConfig(roles={"augmenter": LoggingRole(augmenter=augmenter)},
                            max_in_flight=4)
    run_augment(CorpusIndex({}), config, tmp_path / "aug", tactic=False, informal=True,
                original_pairs=statements(40))
    assert 1 < augmenter.peak <= 4


def test_augment_tree_does_not_depend_on_max_in_flight(tmp_path):
    # Tactic statements and informal variants with drops, so some requests
    # are sent by settle: the tree is the same however they interleave.
    index, pairs = make_corpus(30), statements(30)
    trees = []
    for max_in_flight in (1, 8):
        out = tmp_path / f"aug{max_in_flight}"
        roles = {
            "informalizer": JitteredInformalizerRole(),
            "augmenter": LoggingRole(augmenter=JitteredAugmenter(echo={TRANSLATION})),
        }
        config = PipelineConfig(roles=roles, max_in_flight=max_in_flight)
        counts = run_augment(index, config, out, tactic=True, informal=True, original_pairs=pairs)
        assert counts["tactic_aug_pairs"] > 0 and counts["variants_dropped"] > 0
        trees.append(tree_digest(out))
    assert trees[0] == trees[1]
