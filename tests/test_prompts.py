"""Template selection, prompt assembly, golden file, and assembly properties."""

from __future__ import annotations

from pathlib import Path

import pytest
from conftest import make_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from herald.depgraph import build_graph, stratify
from herald.errors import NoTemplate
from herald.prompts import (
    NO_NOTE_MARKER,
    ProofContext,
    StatementContext,
    TemplateRegistry,
    assemble_proof_prompt,
    assemble_statement_prompt,
    build_statement_context,
    default_registry,
    load_tactic_notes,
    summarize_steps_prompt,
)
from herald.records import DeclarationRecord, DeclKind, NeighborSet, ProofState, ProofStep
from herald.retrieval import AnnotatedExample, EmbeddingVector, ScoredExample

DATA = Path(__file__).parent / "data"


def theorem(name="T.x", deps=(), docstring=None, signature=None) -> DeclarationRecord:
    return DeclarationRecord(
        full_name=name,
        kind=DeclKind.THEOREM,
        signature=signature or f"theorem {name.split('.')[-1]} : True",
        docstring=docstring,
        namespace_path=tuple(name.split(".")[:-1]),
        file_path="T.lean",
        line_span=(1, 2),
        dependencies=frozenset(deps),
        is_tactic_proof=True,
    )


def minimal_registry_json(default=True) -> str:
    import json

    return json.dumps(
        {
            "schema_version": "1",
            "default": "only" if default else None,
            "templates": [
                {
                    "id": "only",
                    "applies_to": ["definition"],
                    "principles": ["Be precise."],
                    "segments": [
                        {"kind": "placeholder", "name": "principles", "required": True},
                        {"kind": "placeholder", "name": "subject_signature", "required": True},
                    ],
                }
            ],
        }
    )


class TestSelectTemplate:
    def test_kind_specific_template_wins(self):
        registry = default_registry()
        assert registry.select(DeclKind.THEOREM.value).id == "stmt-theorem"
        assert registry.select(DeclKind.INSTANCE.value).id == "stmt-instance"

    def test_default_when_no_specific(self):
        registry = TemplateRegistry.from_json(minimal_registry_json())
        assert registry.select("opaque").id == "only"

    def test_proof_template(self):
        assert default_registry().select("proof").id == "proof-steps"

    def test_no_template_without_default(self):
        registry = TemplateRegistry.from_json(minimal_registry_json(default=False))
        with pytest.raises(NoTemplate):
            registry.select("theorem")

    def test_statement_template_requires_principles(self):
        import json

        bad = json.dumps(
            {
                "schema_version": "1",
                "templates": [
                    {
                        "id": "x",
                        "applies_to": ["theorem"],
                        "principles": [],
                        "segments": [{"kind": "literal", "text": "hi"}],
                    }
                ],
            }
        )
        with pytest.raises(Exception):
            TemplateRegistry.from_json(bad)


class TestStatementPrompt:
    def test_minimal_context(self):
        ctx = StatementContext(subject=theorem())
        prompt = assemble_statement_prompt(ctx, default_registry())
        assert "Follow these principles:" in prompt.text
        assert "theorem x : True" in prompt.text
        # absent components leave no labels behind
        for label in ("Docstring:", "Related declarations nearby:",
                      "Closest annotated example(s):", "File-level context:",
                      "Natural-language translations of dependencies:"):
            assert label not in prompt.text

    def test_dependency_translation_included_verbatim(self):
        ctx = StatementContext(
            subject=theorem(deps=["Lib.lemma"]),
            dependent_translations=(("Lib.lemma", "Every widget is frobnicated."),),
        )
        prompt = assemble_statement_prompt(ctx, default_registry())
        assert "Every widget is frobnicated." in prompt.text

    def test_golden_file(self):
        subject = DeclarationRecord(
            full_name="Alg.Group.inv_mul_cancel",
            kind=DeclKind.THEOREM,
            signature="theorem inv_mul_cancel (G : Type u) [Group G] (a : G) : a⁻¹ * a = 1",
            docstring="Multiplying an element by its inverse on the left gives the identity.",
            namespace_path=("Alg", "Group"),
            file_path="Alg/Group.lean",
            line_span=(40, 41),
            dependencies=frozenset({"Alg.Group.mul_assoc", "Alg.Group.one_mul"}),
            is_tactic_proof=True,
        )
        ctx = StatementContext(
            subject=subject,
            head_statements="import Mathlib\n\nFoundations of group theory: identities and inverses.",
            dependent_translations=(
                ("Alg.Group.mul_assoc", "Multiplication in a group is associative."),
                ("Alg.Group.one_mul", "The identity element is a left unit for multiplication."),
            ),
            neighbors=NeighborSet(
                same_namespace=("Alg.Group.mul_inv_cancel",),
                same_file=("Alg.Group.mul_inv_cancel", "Alg.Group.one_mul"),
                name_prefix_shared=("Alg.Group.inv_inv",),
            ),
            retrieved=(
                ScoredExample(
                    example=AnnotatedExample(
                        id="anno-17",
                        formal_text="theorem mul_one (G : Type u) [Group G] (a : G) : a * 1 = a",
                        informal_text="In a group, multiplying any element by the identity on the right leaves it unchanged.",
                        embedding=EmbeddingVector((1.0, 0.0)),
                    ),
                    score=0.91,
                ),
            ),
        )
        sigs = {
            "Alg.Group.mul_inv_cancel": "theorem mul_inv_cancel (G : Type u) [Group G] (a : G) : a * a⁻¹ = 1",
            "Alg.Group.one_mul": "theorem one_mul (G : Type u) [Group G] (a : G) : 1 * a = a",
            "Alg.Group.inv_inv": "theorem inv_inv (G : Type u) [Group G] (a : G) : a⁻¹⁻¹ = a",
        }
        prompt = assemble_statement_prompt(
            ctx, default_registry(), resolve_signature=lambda n: f"{n} : {sigs[n]}"
        )
        golden = (DATA / "golden" / "statement_theorem.txt").read_text(encoding="utf-8")
        assert prompt.text == golden

    def test_component_order_matches_contract(self):
        ctx = StatementContext(
            subject=theorem(docstring="A docstring.", deps=["D.l"]),
            head_statements="heads here",
            dependent_translations=(("D.l", "dep text"),),
            neighbors=NeighborSet(same_file=("D.l",)),
            retrieved=(
                ScoredExample(
                    example=AnnotatedExample(
                        id="e", formal_text="f", informal_text="i",
                        embedding=EmbeddingVector((1.0,)),
                    ),
                    score=1.0,
                ),
            ),
        )
        text = assemble_statement_prompt(ctx, default_registry()).text
        positions = [
            text.index("Follow these principles:"),
            text.index("Closest annotated example(s):"),
            text.index("File-level context:"),
            text.index("Docstring:"),
            text.index("Natural-language translations of dependencies:"),
            text.index("Related declarations nearby:"),
            text.index("statement to translate:"),
        ]
        assert positions == sorted(positions)

    def test_determinism_and_digest(self):
        ctx = StatementContext(subject=theorem(docstring="Same."))
        a = assemble_statement_prompt(ctx, default_registry())
        b = assemble_statement_prompt(ctx, default_registry())
        assert a.text == b.text

    def test_truncation_drops_neighbors_then_heads_never_deps(self):
        ctx = StatementContext(
            subject=theorem(deps=["D.l"]),
            head_statements="H" * 500,
            dependent_translations=(("D.l", "THE-DEP-TEXT"),),
            neighbors=NeighborSet(same_file=tuple(f"N.n{i}" for i in range(50))),
        )
        registry = default_registry()
        full = assemble_statement_prompt(ctx, registry)
        no_neighbors = assemble_statement_prompt(ctx, registry, max_chars=len(full.text) - 1)
        assert "Related declarations nearby:" not in no_neighbors.text
        assert "File-level context:" in no_neighbors.text
        tight = assemble_statement_prompt(ctx, registry, max_chars=100)
        assert "File-level context:" not in tight.text
        for rendered in (full, no_neighbors, tight):
            assert "THE-DEP-TEXT" in rendered.text
            assert ctx.subject.signature in rendered.text


def step(i: int, tactic: str, goals_before=("G",), goals_after=("G'",)) -> ProofStep:
    return ProofStep(
        tactic_text=tactic,
        state_before=ProofState(hypotheses=(("x", "ℂ"),), goals=tuple(goals_before)),
        state_after=ProofState(hypotheses=(("x", "ℂ"),), goals=tuple(goals_after)),
        step_index=i,
    )


HASDERIV_TACTICS = (
    "rw [hasDerivAt_iff_isLittleO_nhds_zero]",
    "have : (1 : ℕ) < 2 := by norm_num",
    "refine (IsBigO.of_bound ‖exp x‖ ?_).trans_isLittleO (isLittleO_pow_id this)",
    "filter_upwards [Metric.ball_mem_nhds (0 : ℂ) zero_lt_one]",
    "simp only [Metric.mem_ball, dist_zero_right, norm_pow]",
    "exact fun z hz => exp_bound_sq x z hz.le",
)


class TestProofPrompt:
    def test_single_step_includes_note(self):
        notes = load_tactic_notes()
        ctx = ProofContext(
            formal_statement="theorem t : a = b",
            informal_statement="a equals b",
            steps=(step(0, "rw [foo_eq_bar]"),),
            tactic_notes=notes,
        )
        text = assemble_proof_prompt(ctx, default_registry()).text
        assert notes["rw"] in text
        assert "rw [foo_eq_bar]" in text

    def test_six_step_fixture_renders_in_order(self):
        ctx = ProofContext(
            formal_statement=(
                "theorem Complex.hasDerivAt_exp (x : ℂ) : "
                "HasDerivAt Complex.exp (Complex.exp x) x"
            ),
            informal_statement=(
                "The complex exponential has derivative exp(x) at every point x."
            ),
            steps=tuple(step(i, t) for i, t in enumerate(HASDERIV_TACTICS)),
            tactic_notes=load_tactic_notes(),
        )
        text = assemble_proof_prompt(ctx, default_registry()).text
        positions = [text.index(f"Step {i + 1}: {t}") for i, t in enumerate(HASDERIV_TACTICS)]
        assert positions == sorted(positions)
        assert text.count("Step ") == 6

    def test_unknown_tactic_gets_no_note_marker(self):
        ctx = ProofContext(
            formal_statement="theorem t : a = b",
            informal_statement="a equals b",
            steps=(step(0, "my_bespoke_tactic arg"),),
            tactic_notes=load_tactic_notes(),
        )
        text = assemble_proof_prompt(ctx, default_registry()).text
        assert NO_NOTE_MARKER in text

    def test_closed_state_rendering(self):
        ctx = ProofContext(
            formal_statement="theorem t : True",
            informal_statement="trivial",
            steps=(step(0, "trivial", goals_after=()),),
        )
        assert "(no goals remaining)" in assemble_proof_prompt(ctx, default_registry()).text


PADIC_TACTICS = ("rw [padicNorm_p hp, inv_lt_one_iff]", "exact mod_cast Or.inr hp")


class TestSummarizePrompt:
    def test_one_step(self):
        ctx = ProofContext(
            formal_statement="theorem t : a = b",
            informal_statement="a equals b",
            steps=(step(0, "rfl"),),
        )
        prompt = summarize_steps_prompt(["By reflexivity."], ctx, default_registry())
        assert "By reflexivity." in prompt.text

    def test_two_step_fixture_orders_translations(self):
        ctx = ProofContext(
            formal_statement="theorem padicNorm_p_lt_one {p : ℕ} (hp : 1 < p) : padicNorm p p < 1",
            informal_statement="The p-adic norm of p is less than one when p exceeds one.",
            steps=tuple(step(i, t) for i, t in enumerate(PADIC_TACTICS)),
        )
        translations = [
            "Rewrite the norm of p as the inverse of p and reduce to a disjunction.",
            "The right disjunct holds by the hypothesis that p exceeds one.",
        ]
        text = summarize_steps_prompt(translations, ctx, default_registry()).text
        assert text.index(translations[0]) < text.index(translations[1])


@settings(max_examples=40, deadline=None)
@given(
    doc=st.text(min_size=1, max_size=60).filter(str.strip),
    heads=st.text(min_size=1, max_size=60).filter(str.strip),
    dep_text=st.text(min_size=1, max_size=60).filter(str.strip),
)
def test_placeholder_contents_appear_verbatim(doc, heads, dep_text):
    ctx = StatementContext(
        subject=theorem(docstring=doc, deps=["D.l"]),
        head_statements=heads,
        dependent_translations=(("D.l", dep_text),),
    )
    text = assemble_statement_prompt(ctx, default_registry()).text
    for chunk in (doc, heads, dep_text, ctx.subject.signature):
        assert chunk in text


def test_build_statement_context_orders_by_level_then_name(corpus30):
    assignment = stratify(build_graph(corpus30))
    # pick a subject with two resolvable dependencies at distinct levels
    from conftest import corpus_name

    subject = corpus30.declarations[corpus_name(9)]
    translations = {name: f"translation of {name}" for name in corpus30.declarations}
    ctx = build_statement_context(subject, corpus30, assignment, translations)
    names = [name for name, _ in ctx.dependent_translations]
    keys = [(assignment.level_of[n], n) for n in names]
    assert keys == sorted(keys)
    assert names  # the fixture guarantees at least one dependency
    for name in names:
        assert assignment.level_of[name] < assignment.level_of[subject.full_name]


def test_statement_prompt_never_embeds_subject_proof(corpus30):
    from conftest import corpus_name

    assignment = stratify(build_graph(corpus30))
    translations = {name: f"translation of {name}" for name in corpus30.declarations}
    for name in corpus30.tactic_proof_names():
        subject = corpus30.declarations[name]
        ctx = build_statement_context(subject, corpus30, assignment, translations)
        text = assemble_statement_prompt(ctx, default_registry()).text
        for step in corpus30.proofs[name]:
            assert step.tactic_text not in text


def test_build_statement_context_skips_unavailable_translations(corpus30):
    from conftest import corpus_name

    assignment = stratify(build_graph(corpus30))
    subject = corpus30.declarations[corpus_name(9)]
    ctx = build_statement_context(subject, corpus30, assignment, translations={})
    assert ctx.dependent_translations == ()
