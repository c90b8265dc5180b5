"""Seeded workload generator with its own reference.

Writes the inputs herald receives (corpus export, exemplar store, general
pool, validation bench) and, next to them, ``reference.json``: the records a
correct run must produce, computed here without importing herald.  The
counts that drive cost (declarations, proofs, steps, items) are fixed by the
size; the seed only changes names, dependency edges, texts and vectors, so
every seed costs about the same.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from repl_stub import accepts

# Per-workload sizes.  "full" is what the benchmark measures (README.md gives
# the layer balance each one keeps); "toy" is the self-test size.
SIZES = {
    "full": {
        "corpus-build": {"decls": 300, "proof_every": 3, "store": 500, "dim": 64,
                         "general": 100, "mix_total": 200},
        "informalize-latency": {"decls": 75, "proof_every": 3, "latency_ms": 15},
        "validate-resume": {"items": 30, "k": 8, "latency_ms": 10, "repl_ms": 5},
    },
    "toy": {
        "corpus-build": {"decls": 24, "proof_every": 3, "store": 20, "dim": 16,
                         "general": 20, "mix_total": 20},
        "informalize-latency": {"decls": 12, "proof_every": 3, "latency_ms": 2},
        "validate-resume": {"items": 6, "k": 4, "latency_ms": 1, "repl_ms": 1},
    },
}

_ROOT_NAMESPACES = ("Alg", "Topo", "Order", "Analysis", "Combi")
_SUB_NAMESPACES = ("Basic", "Ring", "Group", "Lattice", "Filter", "Measure", "Graph")
_TYPES = ("Nat", "Int", "Rat", "Real")
_SHAPES = (
    "{a} + {b} = {b} + {a}",
    "{a} * {b} = {b} * {a}",
    "{a} ≤ {a} + {b}",
    "{a} + 0 = {a}",
    "{a} * 1 = {a}",
    "{a} - {a} = 0",
)
_TACTICS = (("intro h", "simp [h]", "exact h"), ("rw [foo]", "constructor", "rfl"),
            ("induction n", "simp", "omega"))
_WORDS = ("group", "ring", "ideal", "filter", "measure", "lattice", "order", "graph",
          "module", "field", "limit", "series", "chain", "prime", "cover", "space")


def _files(rng: random.Random, count: int) -> list[tuple[tuple[str, ...], str]]:
    """``count`` distinct (namespace path, file path) pairs, nested 1-3 deep."""
    out = []
    seen = set()
    while len(out) < count:
        depth = rng.randint(1, 3)
        ns = (rng.choice(_ROOT_NAMESPACES),) + tuple(
            rng.choice(_SUB_NAMESPACES) for _ in range(depth - 1)
        )
        ns = ns + (f"F{len(out)}",)
        if ns in seen:
            continue
        seen.add(ns)
        out.append((ns, "/".join(ns) + ".lean"))
    return out


def _proof(rng: random.Random, statement: str, two_goals: bool) -> list[dict]:
    """Three tactic steps; with ``two_goals`` the middle state has two goals."""
    tactics = rng.choice(_TACTICS)
    t = rng.choice(_TYPES)
    hyps0 = [["x", t], ["y", t]]
    hyps1 = hyps0 + [["h", f"x ≤ y + {rng.randint(1, 9)}"]]
    second = [statement, f"y ≤ x + {rng.randint(1, 9)}"] if two_goals else [statement]
    states = [
        {"hypotheses": hyps0, "goals": [statement]},
        {"hypotheses": hyps1, "goals": second},
        {"hypotheses": hyps1, "goals": [statement]},
        {"hypotheses": hyps1, "goals": []},
    ]
    return [
        {"tactic_text": tactics[i], "state_before": states[i], "state_after": states[i + 1]}
        for i in range(3)
    ]


def make_corpus(seed: int, decls: int, proof_every: int) -> tuple[dict, dict]:
    """The export document and the reference for the informalize stage.

    Declarations come in topological order; each depends on 0-4 earlier ones,
    so a level is one more than the highest prerequisite level.  Every
    ``proof_every``-th declaration is a theorem with a three-step tactic
    proof; the first of them has a two-goal state.
    """
    rng = random.Random(seed)
    files = _files(rng, max(4, decls // 40))
    line_of = {f: 1 for _, f in files}
    records = []
    proofs = {}
    level_of: dict[str, int] = {}
    names: list[str] = []
    for i in range(decls):
        ns, file_path = rng.choice(files)
        name = ".".join(ns + (f"{rng.choice(_WORDS)}_{i}",))
        deps = sorted(set(rng.sample(names, min(len(names), rng.randint(0, 4)))))
        level_of[name] = 1 + max((level_of[d] for d in deps), default=-1)
        has_proof = i % proof_every == 0
        kind = "theorem" if has_proof or i % 2 else rng.choice(
            ("definition", "structure", "instance", "class", "inductive", "opaque"))
        t = rng.choice(_TYPES)
        goal = rng.choice(_SHAPES).format(a=f"(a{i} : {t})", b=f"b{i}")
        keyword = "def" if kind == "definition" else kind
        signature = f"{keyword} {name} (b{i} : {t}) : {goal}"
        start = line_of[file_path]
        line_of[file_path] = start + 4
        records.append({
            "full_name": name,
            "kind": kind,
            "signature": signature,
            "docstring": f"/-- The {rng.choice(_WORDS)} lemma number {i}. -/" if i % 2 else None,
            "namespace_path": list(ns),
            "file_path": file_path,
            "line_span": [start, start + 3],
            "dependencies": deps,
            "is_tactic_proof": has_proof,
        })
        if has_proof:
            proofs[name] = _proof(rng, goal, two_goals=not proofs)
        names.append(name)
    heads = {f: f"import Mathlib.{ns[0]}\nopen {ns[0]}\n\nFile {f}." for ns, f in files}
    export = {
        "schema_version": "1",
        "declarations": records,
        "proofs": proofs,
        "head_statements": heads,
    }
    reference = {
        "levels": level_of,
        "proofs": sorted(proofs),
        "synthesized": sum(len(s["state_before"]["goals"]) for p in proofs.values() for s in p),
    }
    return export, reference


def split_by_ratio(total: int, ratio: tuple[int, ...]) -> list[int]:
    """Largest-remainder split, ties to the earlier part."""
    shares = [total * r / sum(ratio) for r in ratio]
    counts = [math.floor(s) for s in shares]
    order = sorted(range(len(ratio)), key=lambda i: (counts[i] - shares[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def mix_reference(total: int, pools: dict[str, int]) -> dict:
    """Counts of a 1:2:1 provenance, 2:2:1 direction mix that fits its pools."""
    n_nl, n_fl, n_gen = split_by_ratio(total, (2, 2, 1))
    original, tactic, informal = split_by_ratio(n_nl + n_fl, (1, 2, 1))
    counts = {"original": original, "tactic_aug": tactic, "informal_aug": informal,
              "general": n_gen}
    for key, want in counts.items():
        if want > pools[key]:
            raise ValueError(f"mix total {total} needs {want} {key} records, pool has "
                             f"{pools[key]}; lower mix_total")
    return {"counts": counts,
            "direction_counts": {"nl_to_fl": n_nl, "fl_to_nl": n_fl, "general": n_gen},
            "total": total}


def write_store(rng: random.Random, directory: Path, count: int, dim: int) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "meta.json").write_text(
        json.dumps({"schema_version": "1", "dim": dim, "count": count}) + "\n", encoding="utf-8")
    with open(directory / "examples.jsonl", "w", encoding="utf-8") as fh:
        for i in range(count):
            vec = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            norm = math.sqrt(sum(x * x for x in vec))
            fh.write(json.dumps({
                "id": f"ex{i:05d}",
                "formal_text": f"theorem exemplar_{i} : {rng.choice(_SHAPES).format(a='a', b='b')}",
                "informal_text": f"Exemplar {i} about the {rng.choice(_WORDS)}.",
                "embedding": [x / norm for x in vec],
            }) + "\n")


def make_bench(rng: random.Random, items: int) -> tuple[list[dict], int]:
    """Half short statements (at most 40 characters, which the mock judge
    accepts), half long ones it never accepts; order shuffled by seed."""
    rows = []
    for i in range(items):
        a, b = rng.sample(_WORDS, 2)
        if i % 2 == 0:
            text = f"every {a} is a {b} ({i})"
        else:
            text = (f"for every {a} there is a {b} such that the {a} is bounded "
                    f"by the {b} in case {i}")
        rows.append({"id": f"item{i:03d}", "informal_text": text, "header": None})
    rng.shuffle(rows)
    return rows, sum(1 for r in rows if len(r["informal_text"]) <= 40)


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write the inputs of ``workload`` under ``out``; return the reference."""
    params = SIZES[size][workload]
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    reference: dict = {"workload": workload, "seed": seed, "size": size, "params": params}
    if workload in ("corpus-build", "informalize-latency"):
        export, corpus_ref = make_corpus(rng.randrange(2**32), params["decls"],
                                         params["proof_every"])
        (out / "export.json").write_text(json.dumps(export, ensure_ascii=False), encoding="utf-8")
        reference.update(corpus_ref)
    if workload == "corpus-build":
        write_store(rng, out / "store", params["store"], params["dim"])
        with open(out / "general.jsonl", "w", encoding="utf-8") as fh:
            for i in range(params["general"]):
                fh.write(json.dumps({"id": f"gen{i:04d}",
                                     "text": f"General instruction {i}: explain the "
                                             f"{rng.choice(_WORDS)}."}) + "\n")
        n_proofs = len(reference["proofs"])
        # Tactic augmentation keeps one synthesized statement per proof;
        # informal augmentation keeps one variant per statement.
        reference["tactic_aug"] = n_proofs
        reference["informal_aug"] = params["decls"]
        reference["mix"] = mix_reference(params["mix_total"], {
            "original": params["decls"] + n_proofs,
            "tactic_aug": n_proofs,
            "informal_aug": params["decls"],
            "general": params["general"],
        })
    if workload == "validate-resume":
        rows, short = make_bench(rng, params["items"])
        with open(out / "bench.jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        k = params["k"]
        passable = any(accepts(i) for i in range(k))
        reference["success"] = {
            r["id"]: passable and len(r["informal_text"]) <= 40 for r in rows
        }
        reference["succeeded"] = short if passable else 0
        # Provider calls of a cold run: k samples per item, plus a
        # back-translation and a judge call per compiling candidate that is
        # evaluated (all of them for long items, up to the first for short).
        compiling = [i for i in range(k) if accepts(i)]
        reference["cold_calls"] = params["items"] * k + 2 * (
            short * min(1, len(compiling)) + (params["items"] - short) * len(compiling))
    (out / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return reference
