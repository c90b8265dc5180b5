"""Memory the load paths keep, traced with ``tracemalloc``: an exemplar
store holds its components in one array, and a parsed corpus index holds each
value the export repeats once.

The bounds sit 25 % or more above what CPython 3.11 measures here: 1329 bytes
per 64-dim example (3095 when each row was a tuple of floats), 1139 bytes
per declaration (1748 when every record kept its own copy of each path,
namespace, dependency name and proof state) and 68 bytes per dependency on a
name outside the export (192 when the index kept a warning string for each).
"""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

from conftest import make_corpus, make_wide_corpus, save_store

from herald.ingest import parse_jixia_export, serialize_index
from herald.records import CorpusIndex
from herald.retrieval import AnnotatedExample, EmbeddingVector, ExampleStore, load_store

COUNT = 2000


def kept_bytes(load):
    """What ``load()`` returns, and the bytes allocated while it ran and still held."""
    tracemalloc.start()
    try:
        result = load()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_loaded_store_keeps_under_1700_bytes_per_64_dim_example(tmp_path):
    rng = random.Random(0)
    save_store(ExampleStore([
        AnnotatedExample(f"ex{i:05d}", f"theorem t{i} : a{i} = a{i}", f"Statement {i} holds.",
                         EmbeddingVector(tuple(rng.gauss(0, 1) for _ in range(64))))
        for i in range(COUNT)
    ]), tmp_path)
    store, kept = kept_bytes(lambda: load_store(tmp_path))
    assert store.count == COUNT
    assert kept / COUNT < 1700, kept / COUNT


def test_a_parsed_export_keeps_under_1450_bytes_per_declaration():
    text = serialize_index(make_corpus(COUNT))
    index, kept = kept_bytes(lambda: parse_jixia_export(text))
    assert len(index.declarations) == COUNT and index.proofs
    assert kept / COUNT < 1450, kept / COUNT


def test_a_parsed_export_keeps_under_120_bytes_per_outside_dependency():
    rng = random.Random(0)
    outside = [f"Outside.Lemma.name{j:04d}" for j in range(2000)]
    inside = make_corpus(2 * COUNT)
    declarations = {name: replace(rec, dependencies=rec.dependencies | set(rng.sample(outside, 8)))
                    for name, rec in inside.declarations.items()}
    cited = CorpusIndex(declarations, inside.proofs, inside.head_statements)
    inside_text, cited_text = serialize_index(inside), serialize_index(cited)
    _, base = kept_bytes(lambda: parse_jixia_export(inside_text))
    _, kept = kept_bytes(lambda: parse_jixia_export(cited_text))
    per_dependency = (kept - base) / (2 * COUNT * 8)
    assert per_dependency < 120, per_dependency


def test_declarations_without_dependencies_share_one_empty_set():
    index = parse_jixia_export(serialize_index(make_wide_corpus()))
    empty = [rec.dependencies for rec in index.declarations.values() if not rec.dependencies]
    assert len(empty) > 1
    assert all(deps is empty[0] for deps in empty)
