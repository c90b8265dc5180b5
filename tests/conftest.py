"""Shared fixtures: a deterministic synthetic corpus, DAG generators with
independent level oracles, scripted validation roles, an end-to-end
pipeline driver used by both the CLI tests and the acceptance suite, and
helpers that only the tests need (writing an exemplar store, batching
levels into a topological order, one compile check, one validate item run
to its report)."""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import deque
from pathlib import Path

import pytest

from herald import cli
from herald.depgraph import DepGraph, LevelAssignment
from herald.errors import InvalidInput
from herald.gateway import TRANSLATE_MARKER, Completion, CompletionRequest
from herald.records import CorpusIndex, DeclarationRecord, DeclKind, ProofState, ProofStep
from herald.retrieval import (
    STORE_SCHEMA_VERSION,
    AnnotatedExample,
    EmbeddingVector,
    ExampleStore,
    HashEmbeddingProvider,
)
from herald.validate import DEFAULT_TIMEOUT_MS, CompileOutcome, ValidationReport, validate_item

_FILES = ("Alg/Group.lean", "Alg/Ring.lean", "Top/Basic.lean")
_NAMESPACES = (("Alg", "Group"), ("Alg", "Ring"), ("Top",))
_SPECIAL_KINDS = {
    4: DeclKind.STRUCTURE,
    9: DeclKind.CLASS,
    14: DeclKind.INDUCTIVE,
    19: DeclKind.OPAQUE,
    24: DeclKind.CLASS_INDUCTIVE,
    7: DeclKind.INSTANCE,
    21: DeclKind.INSTANCE,
}


def store_rows(store: ExampleStore) -> list[AnnotatedExample]:
    """The store's examples in row order, rebuilt from its columns."""
    return [
        AnnotatedExample(store._ids[i], store._formal[i], store._informal[i],
                         EmbeddingVector(store._row(i)))
        for i in range(store.count)
    ]


def save_store(store: ExampleStore, directory: str | Path) -> None:
    """Persist as meta.json + examples.jsonl under ``directory``, the layout
    ``retrieval.load_store`` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"schema_version": STORE_SCHEMA_VERSION, "dim": store.dim, "count": store.count}
    (directory / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    with open(directory / "examples.jsonl", "w", encoding="utf-8") as fh:
        for ex in store_rows(store):
            row = {"id": ex.id, "formal_text": ex.formal_text, "informal_text": ex.informal_text,
                   "embedding": list(ex.embedding.values)}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def schedule(assignment: LevelAssignment, batch_size: int) -> list[list[str]]:
    """Chunk each level (in lexicographic order) into batches of <= batch_size.

    All names of level i precede all names of level i+1, so concatenating
    the batches yields a topological order.
    """
    if batch_size < 1:
        raise InvalidInput(f"batch_size must be >= 1, got {batch_size}")
    batches = []
    for names in assignment.levels:
        for i in range(0, len(names), batch_size):
            batches.append(list(names[i : i + batch_size]))
    return batches


def compile_check(statement_text: str, backend, timeout_ms: int = DEFAULT_TIMEOUT_MS
                  ) -> CompileOutcome:
    """``backend.check``: pass iff elaboration reports no errors within the timeout."""
    return backend.check(statement_text, timeout_ms)


def corpus_name(i: int) -> str:
    ns = _NAMESPACES[i % 3]
    return ".".join(ns + (f"item{i:02d}",))


def make_corpus(n: int = 30) -> CorpusIndex:
    """Deterministic n-declaration corpus spanning three files, with a DAG of
    dependencies, docstrings on even items, and 2-step proofs on odd theorems."""
    declarations = {}
    proofs = {}
    for i in range(n):
        kind = _SPECIAL_KINDS.get(i, DeclKind.THEOREM if i % 3 else DeclKind.DEFINITION)
        name = corpus_name(i)
        deps = set()
        if i > 0:
            deps.add(corpus_name(i - 1))
        if i >= 4:
            deps.add(corpus_name(i // 2))
        if i % 5 == 0 and i > 0:
            deps.add("External.missing")  # dangling on purpose
        has_proof = kind == DeclKind.THEOREM and i % 2 == 1
        declarations[name] = DeclarationRecord(
            full_name=name,
            kind=kind,
            signature=f"{kind.value} {name.split('.')[-1]} : P{i} → Q{i}",
            docstring=f"Property {i} relating P{i} and Q{i}." if i % 2 == 0 else None,
            namespace_path=_NAMESPACES[i % 3],
            file_path=_FILES[i % 3],
            line_span=(10 + 6 * (i // 3), 12 + 6 * (i // 3)),
            dependencies=frozenset(deps),
            is_tactic_proof=has_proof,
        )
        if has_proof:
            before0 = ProofState(hypotheses=(("p", "Prop"),), goals=(f"P{i} → Q{i}",))
            mid = ProofState(hypotheses=(("p", "Prop"), ("h", f"P{i}")), goals=(f"Q{i}",))
            closed = ProofState(hypotheses=(("p", "Prop"), ("h", f"P{i}")), goals=())
            proofs[name] = (
                ProofStep("intro h", before0, mid, 0),
                ProofStep(f"exact q{i}_of_p{i} h", mid, closed, 1),
            )
    head_statements = {
        _FILES[0]: "import Mathlib\nopen Algebra\n\nBasic facts about the running corpus.",
        _FILES[1]: "import Mathlib\n\nRing-side facts.",
        _FILES[2]: "import Mathlib\nopen Topology\n\nTopology-side facts.",
    }
    return CorpusIndex(declarations=declarations, proofs=proofs, head_statements=head_statements)


@pytest.fixture
def corpus30() -> CorpusIndex:
    return make_corpus(30)


def make_wide_corpus(n: int = 40, seed: int = 5, edge_prob: float = 0.08) -> CorpusIndex:
    """Seeded random-DAG corpus: wide levels, so many statements are ready at
    once (``make_corpus`` is a chain).  Every third declaration is a theorem
    with a three-step tactic proof."""
    nodes, edges = random_dag(random.Random(seed), n, edge_prob)
    deps: dict[str, set[str]] = {name: set() for name in nodes}
    for u, v in edges:
        deps[v].add(u)
    declarations = {}
    proofs = {}
    for i, name in enumerate(sorted(nodes)):
        has_proof = i % 3 == 0
        kind = DeclKind.THEOREM if has_proof else DeclKind.DEFINITION
        declarations[name] = DeclarationRecord(
            full_name=name,
            kind=kind,
            signature=f"{kind.value} {name} : A{i} → B{i}",
            docstring=None,
            namespace_path=(f"Ns{i % 4}",),
            file_path=_FILES[i % 3],
            line_span=(1 + 3 * i, 2 + 3 * i),
            dependencies=frozenset(deps[name]),
            is_tactic_proof=has_proof,
        )
        if has_proof:
            states = [
                ProofState(hypotheses=(("h", f"A{i}"),), goals=(f"B{i}", f"C{i}")[: 2 - k])
                for k in range(3)
            ]
            proofs[name] = tuple(
                ProofStep(f"step{k} {name}", states[k], states[min(k + 1, 2)], k)
                for k in range(3)
            )
    return CorpusIndex(declarations=declarations, proofs=proofs)


# --- random DAGs with an independent level oracle ---------------------------


def random_dag(rng: random.Random, n_nodes: int, edge_prob: float = 0.15):
    """Acyclic by construction: edges only go forward in a shuffled order."""
    names = [f"n{i:03d}" for i in range(n_nodes)]
    order = names[:]
    rng.shuffle(order)
    edges = set()
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.add((order[i], order[j]))
    return frozenset(names), frozenset(edges)


def graph_of(nodes, edges, unresolved=0) -> DepGraph:
    """The graph of ``nodes`` with (prerequisite, dependent) ``edges``, each
    node's prerequisites in the order ``edges`` gives them."""
    prerequisites: dict[str, list[str]] = {n: [] for n in nodes}
    for u, v in edges:
        prerequisites[v].append(u)
    return DepGraph({n: tuple(ps) for n, ps in prerequisites.items()}, unresolved)


def oracle_levels(nodes, edges) -> dict[str, int]:
    """Longest prerequisite chain per node, by direct recursion."""
    preds: dict[str, list[str]] = {n: [] for n in nodes}
    for u, v in edges:
        preds[v].append(u)
    memo: dict[str, int] = {}

    def level(n: str) -> int:
        if n in memo:
            return memo[n]
        memo[n] = 0 if not preds[n] else 1 + max(level(p) for p in preds[n])
        return memo[n]

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        return {n: level(n) for n in nodes}
    finally:
        sys.setrecursionlimit(old)


# --- scripted validation roles ----------------------------------------------

_ITEM_RE = re.compile(r"statement (\d+)")


class ScriptedTranslator:
    """Deterministic translator for the constructed benchmark.

    Items are recognized from their 'statement NN' informal text.  For items
    with index < n_passing, candidate number (7 * index) % k_span echoes the
    informal text itself (which the mock back-translator and judge then
    accept); a few items emit a compiling-but-wrong candidate to exercise
    the judge's reject path; everything else fails to compile.
    """

    name = "scripted-translator"

    def __init__(self, n_passing: int = 13, k_span: int = 128):
        self.n_passing = n_passing
        self.k_span = k_span

    def pass_position(self, item: int) -> int:
        return (7 * item) % self.k_span

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        idx = request.prompt_text.rfind(TRANSLATE_MARKER)
        informal = request.prompt_text[idx + len(TRANSLATE_MARKER) :].strip()
        m = _ITEM_RE.search(informal)
        item = int(m.group(1)) if m else 0
        if item < self.n_passing and sample_index == self.pass_position(item):
            return Completion(text=informal)
        if item % 5 == 4 and sample_index == 1:
            return Completion(text=f"plausible_but_wrong_claim_{item}")
        return Completion(text=f"bogus translation {item} sample {sample_index}")


def benchmark_items(n_items: int = 20) -> list[dict]:
    return [
        {"id": f"item{i:02d}", "informal_text": f"statement {i} asserts the property."}
        for i in range(n_items)
    ]


def script_benchmark_backend(backend, items, translator, header: str) -> None:
    """Mark as compiling: every passing echo candidate plus the wrong-claim ones."""
    from herald.validate import compose_source

    for item in items:
        m = _ITEM_RE.search(item["informal_text"])
        i = int(m.group(1)) if m else 0
        if i < translator.n_passing:
            backend.script(compose_source(item["informal_text"], header), True)
        if i % 5 == 4:
            backend.script(compose_source(f"plausible_but_wrong_claim_{i}", header), True)


def validate_one(informal: str, k: int, roles, backend, gateway, **options) -> ValidationReport:
    """One item through :func:`herald.validate.validate_item`, each request
    waited for in the order it was sent; the answers reach the completion
    log at the gateway's close."""
    sent = deque()
    run = validate_item(informal, k, roles, backend, gateway,
                        lambda future, tag: sent.append((future, tag)), **options)
    try:
        while True:
            future, tag = sent.popleft()
            report = run.settle(tag, future.result())
            if report is not None:
                return report
    finally:
        for future, _ in sent:
            future.cancel()


# --- a valid export to break ------------------------------------------------


def one_proof_export() -> dict:
    """A valid export: theorem ``A`` with a one-step proof over two
    hypotheses, definition ``B`` on ``A``, and one head statement."""
    def decl(name, kind, deps):
        return {"full_name": name, "kind": kind, "signature": f"{name} : True",
                "docstring": None, "namespace_path": [], "file_path": "T.lean",
                "line_span": [1, 2], "dependencies": deps, "is_tactic_proof": kind == "theorem"}

    hypotheses = [["p", "Prop"], ["q", "Prop"]]
    step = {"tactic_text": "intro h",
            "state_before": {"hypotheses": hypotheses, "goals": ["p → p"]},
            "state_after": {"hypotheses": [*hypotheses, ["h", "p"]], "goals": ["p"]}}
    return {"schema_version": "1",
            "declarations": [decl("A", "theorem", []), decl("B", "definition", ["A"])],
            "proofs": {"A": [step]}, "head_statements": {"T.lean": "import Mathlib"}}


# --- end-to-end pipeline driver ----------------------------------------------


def tree_digest(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of content, for byte-identical tree comparison."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def cache_keys(cache_dir: Path) -> list[str]:
    """The keys in a stage's completion log, in file order."""
    with open(Path(cache_dir) / "completions.jsonl", encoding="utf-8") as fh:
        return [json.loads(line)["key"] for line in fh]


def write_shared_fixtures(root: Path) -> dict[str, Path]:
    """Corpus export, exemplar store, general data, bench, and config shared
    by both runs of the determinism check."""
    from herald.ingest import serialize_index

    root.mkdir(parents=True, exist_ok=True)
    export = root / "corpus.json"
    export.write_text(serialize_index(make_corpus(30)), encoding="utf-8")

    provider = HashEmbeddingProvider(dim=16)
    examples = [
        AnnotatedExample(
            id=f"ex{i}",
            formal_text=f"theorem exemplar_{i} : a{i} = a{i}",
            informal_text=f"Exemplar {i}: a{i} equals itself.",
            embedding=provider.embed_text(f"theorem exemplar_{i} : a{i} = a{i}"),
        )
        for i in range(5)
    ]
    store_dir = root / "store"
    save_store(ExampleStore(examples), store_dir)

    general = root / "general.jsonl"
    general.write_text(
        "".join(
            json.dumps({"id": f"gen{i}", "text": f"General instruction sample {i}."}) + "\n"
            for i in range(40)
        ),
        encoding="utf-8",
    )

    bench = root / "bench.jsonl"
    items = [
        {"id": "b0", "informal_text": "p zero holds."},
        {"id": "b1", "informal_text": "q one holds."},
        {"id": "b2", "informal_text": "r two holds."},
        {
            "id": "b3",
            "informal_text": "this statement is long enough that the mock translator "
            "truncates it away, so the containment judge rejects the candidates.",
        },
        {
            "id": "b4",
            "informal_text": "another deliberately long statement whose candidates never "
            "contain the full text and therefore fail the judge.",
        },
    ]
    bench.write_text(
        "".join(json.dumps(item) + "\n" for item in items), encoding="utf-8"
    )

    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "paths": {
                    "example_store": str(store_dir),
                    "general_data": str(general),
                },
                "roles": {name: {"provider": "mock"} for name in
                          ("informalizer", "translator", "back_translator", "nli_judge", "augmenter")},
                "knobs": {
                    "retrieval_k": 1,
                    "pass_k": 4,
                    "dedup_seed": 7,
                    "mix_seed": 3,
                    "backend": {"kind": "mock", "default_ok": True},
                },
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return {"export": export, "config": config, "bench": bench, "general": general}


def run_full_pipeline(fixtures: dict[str, Path], out_root: Path) -> None:
    """ingest -> stratify -> informalize -> augment -> mix -> validate."""

    def run(*argv: str) -> None:
        code = cli.main(list(argv))
        assert code == 0, f"command {argv} exited {code}"

    cfg = str(fixtures["config"])
    run("--config", cfg, "--out", str(out_root / "ingest"), "ingest",
        "--export", str(fixtures["export"]))
    index_path = str(out_root / "ingest" / "index.json")
    run("--config", cfg, "--out", str(out_root / "stratify"), "stratify",
        "--index", index_path, "--emit-dot", str(out_root / "stratify" / "graph.dot"))
    run("--config", cfg, "--out", str(out_root / "informalize"), "informalize",
        "--index", index_path)
    run("--config", cfg, "--out", str(out_root / "augment"), "augment",
        "--index", index_path, "--tactic", "--informal",
        "--pairs", str(out_root / "informalize"))
    run("--config", cfg, "--out", str(out_root / "mix"), "mix",
        "--original", str(out_root / "informalize"),
        "--tactic-aug", str(out_root / "augment" / "tactic_aug.jsonl"),
        "--informal-aug", str(out_root / "augment" / "informal_aug.jsonl"),
        "--total", "20", "--ratio", "1:2:1", "--dirmix", "2:2:1")
    run("--config", cfg, "--out", str(out_root / "validate"), "validate",
        "--bench", str(fixtures["bench"]), "--k", "4", "--name", "e2e")
    run("--config", cfg, "--out", str(out_root / "stats"), "stats",
        "--data", str(out_root / "mix" / "dataset.jsonl"))
