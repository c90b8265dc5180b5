"""Pair persistence, record-file readers, ratio mixing, dataset stats."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herald.datastore import (
    Direction,
    NLFLPair,
    Provenance,
    mix,
    pair_to_dict,
    read_pairs,
    split_by_ratio,
    stats,
    stats_table,
    stats_to_json,
    write_pairs,
    write_pairs_atomic,
)
from herald.errors import EmptyPool, InvalidInput, SchemaError
from herald.gateway import Gateway, GatewayConfig
from herald.pipeline import load_benchmark, load_general_pairs
from herald.retrieval import STORE_SCHEMA_VERSION, load_store
from herald.validate import read_reports


def pair(
    i: int,
    provenance: Provenance = Provenance.ORIGINAL,
    direction: Direction | None = Direction.NL_TO_FL,
    level: int | None = None,
    record_type: str = "statement",
) -> NLFLPair:
    return NLFLPair(
        id=f"{provenance.value}-{i:05d}",
        formal_text="" if direction is None else f"theorem t{i} : P{i}",
        informal_text=f"informal text {i}",
        direction=direction,
        provenance=provenance,
        source_name=None if direction is None else f"src.{i}",
        level=level,
        record_type=record_type,
    )


def pool(n: int, provenance: Provenance) -> list[NLFLPair]:
    if provenance == Provenance.GENERAL:
        return [pair(i, provenance, direction=None, record_type="instruction") for i in range(n)]
    return [pair(i, provenance) for i in range(n)]


class TestPairInvariants:
    def test_empty_informal_rejected(self):
        with pytest.raises(InvalidInput):
            NLFLPair(
                id="x", formal_text="f", informal_text="",
                direction=Direction.NL_TO_FL, provenance=Provenance.ORIGINAL,
            )

    def test_formal_required_unless_general(self):
        with pytest.raises(InvalidInput):
            NLFLPair(
                id="x", formal_text="", informal_text="i",
                direction=Direction.NL_TO_FL, provenance=Provenance.ORIGINAL,
            )
        NLFLPair(
            id="x", formal_text="", informal_text="i",
            direction=None, provenance=Provenance.GENERAL,
        )

    def test_direction_none_only_for_general(self):
        with pytest.raises(InvalidInput):
            NLFLPair(
                id="x", formal_text="f", informal_text="i",
                direction=None, provenance=Provenance.ORIGINAL,
            )


class TestWriteRead:
    def test_empty(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        assert write_pairs([], path) == 0
        assert path.read_text(encoding="utf-8") == ""
        assert read_pairs(path) == []

    def test_three_pairs_round_trip(self, tmp_path):
        pairs = [pair(i) for i in range(3)]
        path = tmp_path / "pairs.jsonl"
        assert write_pairs(pairs, path) == 3
        assert read_pairs(path) == pairs

    def test_field_order_is_fixed(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([pair(1)], path)
        keys = list(json.loads(path.read_text(encoding="utf-8")).keys())
        assert keys == [
            "id", "formal_text", "informal_text", "direction",
            "provenance", "source_name", "level", "record_type",
        ]

    def test_large_round_trip(self, tmp_path):
        rng = random.Random(0)
        pairs = [
            pair(
                i,
                provenance=rng.choice([Provenance.ORIGINAL, Provenance.TACTIC_AUG]),
                level=rng.choice([None, rng.randint(0, 30)]),
                record_type=rng.choice(["statement", "proof"]),
            )
            for i in range(10000)
        ]
        path = tmp_path / "big.jsonl"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs_atomic([pair(1)], path)
        write_pairs_atomic([pair(2)], path)
        [only] = read_pairs(path)
        assert only.id.endswith("00002")
        assert not path.with_suffix(".tmp").exists()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10000), max_size=25, unique=True))
    def test_round_trip_property(self, ids):
        import tempfile

        pairs = [pair(i) for i in ids]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/pairs.jsonl"
            write_pairs(pairs, path)
            assert read_pairs(path) == pairs


class TestSplitByRatio:
    def test_spec_examples(self):
        assert split_by_ratio(200, (1, 2, 1)) == [50, 100, 50]
        assert split_by_ratio(500, (2, 2, 1)) == [200, 200, 100]

    def test_rounding_prefers_largest_remainder(self):
        assert sum(split_by_ratio(10, (1, 1, 1))) == 10

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 5000),
        st.lists(st.integers(1, 9), min_size=2, max_size=5),
    )
    def test_largest_remainder_bound(self, total, ratio):
        counts = split_by_ratio(total, tuple(ratio))
        assert sum(counts) == total
        denom = sum(ratio)
        for count, r in zip(counts, ratio):
            assert abs(count - total * r / denom) <= 1

    def test_bad_ratio(self):
        with pytest.raises(InvalidInput):
            split_by_ratio(10, (1, 0, 1))


class TestMix:
    def test_default_ratios_realize_counts(self):
        records, manifest = mix(
            pool(100, Provenance.ORIGINAL),
            pool(200, Provenance.TACTIC_AUG),
            pool(100, Provenance.INFORMAL_AUG),
            pool(120, Provenance.GENERAL),
            total=500,
            seed=1,
        )
        assert len(records) == 500
        assert manifest.direction_counts == {
            "nl_to_fl": 200, "fl_to_nl": 200, "general": 100,
        }
        assert manifest.counts == {
            "original": 100, "tactic_aug": 200, "informal_aug": 100, "general": 100,
        }
        assert manifest.ratio_spec == "1:2:1|2:2:1"
        assert not manifest.scaled_down

    def test_same_seed_same_bytes(self, tmp_path):
        kwargs = dict(total=120, seed=9)
        pools = (
            pool(80, Provenance.ORIGINAL),
            pool(90, Provenance.TACTIC_AUG),
            pool(70, Provenance.INFORMAL_AUG),
            pool(50, Provenance.GENERAL),
        )
        for name in ("a.jsonl", "b.jsonl"):
            records, _ = mix(*pools, **kwargs)
            write_pairs(records, tmp_path / name)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_different_seeds_differ(self):
        pools = (
            pool(80, Provenance.ORIGINAL),
            pool(90, Provenance.TACTIC_AUG),
            pool(70, Provenance.INFORMAL_AUG),
            pool(50, Provenance.GENERAL),
        )
        a, _ = mix(*pools, total=100, seed=1)
        b, _ = mix(*pools, total=100, seed=2)
        assert a != b

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPool):
            mix(
                pool(10, Provenance.ORIGINAL),
                [],
                pool(10, Provenance.INFORMAL_AUG),
                pool(10, Provenance.GENERAL),
                total=20,
                seed=0,
            )

    def test_scales_down_when_pools_small(self, caplog):
        records, manifest = mix(
            pool(5, Provenance.ORIGINAL),
            pool(5, Provenance.TACTIC_AUG),
            pool(5, Provenance.INFORMAL_AUG),
            pool(5, Provenance.GENERAL),
            total=1000,
            seed=0,
        )
        assert manifest.scaled_down
        assert manifest.total == len(records) < 1000
        # realized counts still within pool sizes
        assert all(v <= 5 for v in manifest.counts.values())

    def test_mirrored_ids_marked(self):
        records, _ = mix(
            pool(40, Provenance.ORIGINAL),
            pool(80, Provenance.TACTIC_AUG),
            pool(40, Provenance.INFORMAL_AUG),
            pool(40, Provenance.GENERAL),
            total=100,
            seed=4,
        )
        for rec in records:
            if rec.direction == Direction.FL_TO_NL:
                assert rec.id.endswith("_rev")

    def test_total_zero(self):
        records, manifest = mix(
            pool(5, Provenance.ORIGINAL),
            pool(5, Provenance.TACTIC_AUG),
            pool(5, Provenance.INFORMAL_AUG),
            pool(5, Provenance.GENERAL),
            total=0,
            seed=0,
        )
        assert records == []
        assert manifest.total == 0
        assert not manifest.scaled_down

    def test_tiny_totals_stay_feasible(self):
        pools = (
            pool(10, Provenance.ORIGINAL),
            pool(10, Provenance.TACTIC_AUG),
            pool(10, Provenance.INFORMAL_AUG),
            pool(10, Provenance.GENERAL),
        )
        for total in range(1, 12):
            records, manifest = mix(*pools, total=total, seed=total)
            assert manifest.total == len(records) == total

    def test_manifest_total_matches_line_count(self, tmp_path):
        records, manifest = mix(
            pool(50, Provenance.ORIGINAL),
            pool(100, Provenance.TACTIC_AUG),
            pool(50, Provenance.INFORMAL_AUG),
            pool(30, Provenance.GENERAL),
            total=150,
            seed=2,
        )
        path = tmp_path / "dataset.jsonl"
        write_pairs(records, path)
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
        assert manifest.total == len(lines)
        assert json.loads(manifest.to_json())["total"] == len(lines)


class TestStats:
    def test_counts(self, tmp_path):
        records = (
            [pair(i, Provenance.ORIGINAL, level=0) for i in range(3)]
            + [pair(i, Provenance.TACTIC_AUG, level=1) for i in range(5)]
            + [pair(i, Provenance.ORIGINAL, level=1, record_type="proof") for i in range(2)]
            + [pair(i, Provenance.GENERAL, direction=None, record_type="instruction") for i in range(4)]
        )
        path = tmp_path / "data.jsonl"
        write_pairs(records, path)
        result = stats(path)
        assert result.total == 14
        assert result.by_provenance == {"original": 5, "tactic_aug": 5, "general": 4}
        assert result.by_direction == {"nl_to_fl": 10, "general": 4}
        assert result.by_record_type == {"statement": 8, "proof": 2, "instruction": 4}
        assert result.level_histogram == {0: 3, 1: 7}
        table = stats_table(result)
        assert "original" in table and "14" in table
        assert json.loads(stats_to_json(result))["total"] == 14

    def test_empty_file_all_zero(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        result = stats(path)
        assert result.total == 0
        assert result.by_provenance == {}

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(
            {
                "id": "a", "formal_text": "f", "informal_text": "i",
                "direction": "nl_to_fl", "provenance": "original",
                "source_name": None, "level": None, "record_type": "statement",
            }
        )
        path.write_text(good + "\n{broken\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            stats(path)
        assert "line 2" in str(exc.value)


def _read_store(path):
    meta = {"schema_version": STORE_SCHEMA_VERSION, "dim": 2, "count": 2}
    (path.parent / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return load_store(path.parent).count


def _read_cache(path):
    # Closing a gateway reads its log and rewrites what it read, sorted.
    Gateway(GatewayConfig(cache_dir=path.parent)).close()
    return len(path.read_text(encoding="utf-8").splitlines())


# name -> (file name, read the file and count its records, a good record i,
# a record that parses but that the record's constructor rejects)
READERS = {
    "pairs": (
        "pairs.jsonl",
        lambda path: len(read_pairs(path)),
        lambda i: pair_to_dict(pair(i)),
        {"id": "x", "formal_text": "f", "informal_text": "", "direction": "nl_to_fl",
         "provenance": "original"},
    ),
    "reports": (
        "reports.jsonl",
        lambda path: len(list(read_reports(path))),
        lambda i: {"item_id": f"a{i}", "k": 1, "success": False, "candidates": [],
                   "short_circuit": True},
        {"item_id": "x", "k": 1, "success": True, "candidates": [], "short_circuit": True},
    ),
    "benchmark": (
        "bench.jsonl",
        lambda path: len(load_benchmark(path)),
        lambda i: {"id": f"b{i}", "informal_text": "t"},
        None,  # items are plain dicts: nothing to reject
    ),
    "general": (
        "general.jsonl",
        lambda path: len(load_general_pairs(path)),
        lambda i: {"id": f"g{i}", "text": "t"},
        {"id": "x", "text": ""},
    ),
    "cache log": (
        "completions.jsonl",
        _read_cache,
        lambda i: {"key": f"k{i}", "text": "t", "finish_reason": "stop", "provider_meta": {}},
        {"key": "x", "text": "t", "finish_reason": "error", "provider_meta": {}},
    ),
    "example store": (
        "examples.jsonl",
        _read_store,
        lambda i: {"id": f"e{i}", "formal_text": "f", "informal_text": "i",
                   "embedding": [1.0, float(i)]},
        {"id": "x", "formal_text": "", "informal_text": "i", "embedding": [1.0, 0.0]},
    ),
}

# The rejected line is each reader's own (the fourth entry above).
BAD_LINES = {"not json": "{broken", "missing key": json.dumps({"id": "x"}), "rejected": None}


class TestRecordReaders:
    """Every JSONL reader goes through ``read_jsonl``: blank lines are skipped
    and a bad line is a SchemaError located at ``file: line N``."""

    @pytest.mark.parametrize("reader", READERS)
    def test_blank_lines_skipped(self, tmp_path, reader):
        name, read, good, _ = READERS[reader]
        path = tmp_path / name
        path.write_text(f"{json.dumps(good(0))}\n\n{json.dumps(good(1))}\n", encoding="utf-8")
        assert read(path) == 2

    @pytest.mark.parametrize("reader, bad", [
        (reader, bad) for reader in READERS for bad in BAD_LINES
        if not (bad == "rejected" and READERS[reader][3] is None)
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, reader, bad):
        name, read, good, rejected = READERS[reader]
        path = tmp_path / name
        line = BAD_LINES[bad] or json.dumps(rejected)
        path.write_text(f"{json.dumps(good(0))}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            read(path)
        assert exc.value.path == f"{path}: line 3"
