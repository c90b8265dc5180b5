"""CLI subcommands: exit codes, artifacts, resume, end-to-end determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import (
    make_corpus,
    run_full_pipeline,
    tree_digest,
    write_shared_fixtures,
)

from herald import cli
from herald.datastore import read_pairs
from herald.ingest import serialize_index

DATA = Path(__file__).parent / "data"


@pytest.fixture
def export_file(tmp_path) -> Path:
    path = tmp_path / "corpus.json"
    path.write_text(serialize_index(make_corpus(12)), encoding="utf-8")
    return path


@pytest.fixture
def mock_config(tmp_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "roles": {},
                "knobs": {"pass_k": 2,
                          "backend": {"kind": "mock", "default_ok": True}},
            }
        ),
        encoding="utf-8",
    )
    return path


def run(*argv: str) -> int:
    return cli.main(list(argv))


class TestIngest:
    def test_export_to_index(self, tmp_path, export_file, capsys):
        out = tmp_path / "out"
        assert run("--out", str(out), "ingest", "--export", str(export_file)) == 0
        assert (out / "index.json").exists()
        assert (out / "ingest_run_manifest.json").exists()
        assert "12 declarations" in capsys.readouterr().out

    def test_bad_export_exits_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "declarations": [{"full_name": "x", "kind": "axiom"}],
                }
            ),
            encoding="utf-8",
        )
        assert run("--out", str(tmp_path / "o"), "ingest", "--export", str(bad)) == 2
        err = capsys.readouterr().err
        assert "$.declarations[0]" in err

    def test_missing_export_exits_2(self, tmp_path):
        assert run("--out", str(tmp_path / "o"), "ingest",
                   "--export", str(tmp_path / "nope.json")) == 2

    def test_from_source(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "A.lean").write_text(
            (DATA / "normal_extensions.lean").read_text(encoding="utf-8"), encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run("--out", str(out), "ingest", "--from-source", str(src)) == 0
        doc = json.loads((out / "index.json").read_text(encoding="utf-8"))
        assert len(doc["declarations"]) == 8


class TestStratify:
    def test_levels_and_dot(self, tmp_path, export_file):
        out = tmp_path / "out"
        assert run("--out", str(out), "ingest", "--export", str(export_file)) == 0
        dot = tmp_path / "graph.dot"
        assert run("--out", str(out), "stratify",
                   "--index", str(out / "index.json"), "--emit-dot", str(dot)) == 0
        doc = json.loads((out / "levels.json").read_text(encoding="utf-8"))
        assert doc["levels"]
        assert dot.read_text(encoding="utf-8").startswith("digraph")
        # levels partition level_of, each name on the level it is assigned
        flat = [n for level in doc["levels"] for n in level]
        assert sorted(flat) == sorted(doc["level_of"])
        for i, level in enumerate(doc["levels"]):
            assert all(doc["level_of"][n] == i for n in level)


class TestInformalize:
    def _setup(self, tmp_path, export_file, mock_config):
        out = tmp_path / "out"
        assert run("--out", str(out), "ingest", "--export", str(export_file)) == 0
        return out

    def test_level_files_in_order(self, tmp_path, export_file, mock_config):
        out = self._setup(tmp_path, export_file, mock_config)
        inf = tmp_path / "inf"
        assert run("--config", str(mock_config), "--out", str(inf),
                   "informalize", "--index", str(out / "index.json")) == 0
        from herald.pipeline import level_files as _lf
        level_files = _lf(inf)
        assert len(level_files) >= 3
        pairs = [p for f in level_files for p in read_pairs(f)]
        assert len(pairs) == 12
        # every proof record has its statement's record in a level file
        proof_ids = [p.id for p in read_pairs(inf / "proofs.jsonl")]
        assert proof_ids
        statement_ids = {p.id for p in pairs}
        for pid in proof_ids:
            assert pid.removesuffix("::proof") in statement_ids

    def test_dry_run_writes_prompts_only(self, tmp_path, export_file, mock_config):
        out = self._setup(tmp_path, export_file, mock_config)
        inf = tmp_path / "inf"
        assert run("--config", str(mock_config), "--out", str(inf),
                   "informalize", "--index", str(out / "index.json"), "--dry-run") == 0
        assert list((inf / "prompts").glob("*.txt"))
        assert not list(inf.glob("statements_level_*.jsonl"))
        assert not (inf / "proofs.jsonl").exists()

    def test_budget_exhaustion_then_resume(self, tmp_path, export_file, mock_config, capsys):
        out = self._setup(tmp_path, export_file, mock_config)
        inf = tmp_path / "inf"
        code = run("--config", str(mock_config), "--out", str(inf),
                   "informalize", "--index", str(out / "index.json"), "--budget", "5")
        assert code == 3
        assert "resume" in capsys.readouterr().err
        from herald.pipeline import level_files as _lf
        interrupted = [p for f in _lf(inf) for p in read_pairs(f)]
        assert 0 < len(interrupted) < 12

        assert run("--config", str(mock_config), "--out", str(inf),
                   "informalize", "--index", str(out / "index.json")) == 0
        pairs = [p for f in _lf(inf) for p in read_pairs(f)]
        ids = [p.id for p in pairs]
        assert len(ids) == len(set(ids)) == 12
        # earlier records were not rewritten
        assert [p.id for p in interrupted] == ids[: len(interrupted)]

    def test_resume_with_changed_config_refused(self, tmp_path, export_file, mock_config):
        out = self._setup(tmp_path, export_file, mock_config)
        inf = tmp_path / "inf"
        assert run("--config", str(mock_config), "--out", str(inf),
                   "informalize", "--index", str(out / "index.json")) == 0
        other = tmp_path / "other.json"
        other.write_text(
            json.dumps({"knobs": {"pass_k": 3}}), encoding="utf-8"
        )
        code = run("--config", str(other), "--out", str(inf),
                   "informalize", "--index", str(out / "index.json"))
        assert code == 2

    @pytest.mark.parametrize("rerun_doc, rerun_indent, rerun_code", [
        ({"knobs": {"request_budget": 1000}}, None, 0),  # a spent budget raised
        ({"knobs": {"request_budget": 1}}, 4, 3),  # the same document, laid out anew
    ])
    def test_resume_after_an_operational_or_layout_edit(
        self, tmp_path, export_file, mock_config, capsys, rerun_doc, rerun_indent, rerun_code
    ):
        out = self._setup(tmp_path, export_file, mock_config)
        inf = tmp_path / "inf"
        config = tmp_path / "budget.json"
        config.write_text(json.dumps({"knobs": {"request_budget": 1}}), encoding="utf-8")
        index = str(out / "index.json")
        assert run("--config", str(config), "--out", str(inf), "informalize", "--index", index) == 3
        config.write_text(json.dumps(rerun_doc, indent=rerun_indent), encoding="utf-8")
        capsys.readouterr()
        code = run("--config", str(config), "--out", str(inf), "informalize", "--index", index)
        assert code == rerun_code
        assert "refusing to resume" not in capsys.readouterr().err


class TestAugmentMixValidateStats:
    def test_augment_outputs(self, tmp_path, export_file, mock_config):
        out = tmp_path / "out"
        assert run("--out", str(out), "ingest", "--export", str(export_file)) == 0
        augd = tmp_path / "aug"
        assert run("--config", str(mock_config), "--out", str(augd),
                   "augment", "--index", str(out / "index.json"),
                   "--tactic", "--dedup-seed", "7") == 0
        assert (augd / "synthesized.jsonl").exists()
        assert (augd / "rejected.jsonl").exists()
        tactic_pairs = read_pairs(augd / "tactic_aug.jsonl")
        assert tactic_pairs
        assert all(p.provenance.value == "tactic_aug" for p in tactic_pairs)

    def test_full_chain(self, tmp_path):
        fixtures = write_shared_fixtures(tmp_path / "fixtures")
        run_full_pipeline(fixtures, tmp_path / "run")
        mix_manifest = json.loads(
            (tmp_path / "run" / "mix" / "mix_manifest.json").read_text(encoding="utf-8")
        )
        dataset = read_pairs(tmp_path / "run" / "mix" / "dataset.jsonl")
        assert mix_manifest["total"] == len(dataset) == 20
        assert mix_manifest["direction_counts"] == {
            "nl_to_fl": 8, "fl_to_nl": 8, "general": 4,
        }
        summary = json.loads(
            (tmp_path / "run" / "validate" / "summary.json").read_text(encoding="utf-8")
        )
        assert summary["total"] == 5
        assert summary["k"] == 4
        # short informal items pass against the mocks, long ones fail
        assert summary["succeeded"] == 3
        stats_doc = json.loads(
            (tmp_path / "run" / "stats" / "stats.json").read_text(encoding="utf-8")
        )
        assert stats_doc["total"] == 20

    def test_validate_budget_exhaustion_then_resume(self, tmp_path, capsys):
        bench = write_shared_fixtures(tmp_path / "fixtures")["bench"]
        ref, val = tmp_path / "ref", tmp_path / "val"
        config = tmp_path / "budget.json"
        config.write_text(json.dumps({"knobs": {"request_budget": 12}}), encoding="utf-8")
        argv = ("validate", "--bench", str(bench), "--k", "4")
        assert run("--out", str(ref), *argv) == 0
        assert run("--config", str(config), "--out", str(val), *argv) == 3
        assert "rerun the same command to resume" in capsys.readouterr().err
        assert run("--out", str(val), *argv) == 0
        assert tree_digest(val) == tree_digest(ref)

    def test_end_to_end_determinism(self, tmp_path):
        fixtures = write_shared_fixtures(tmp_path / "fixtures")
        run_full_pipeline(fixtures, tmp_path / "run1")
        run_full_pipeline(fixtures, tmp_path / "run2")
        assert tree_digest(tmp_path / "run1") == tree_digest(tmp_path / "run2")

    def test_mix_empty_general_pool_exits_2(self, tmp_path, export_file, mock_config):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        pairs_file = tmp_path / "pairs.jsonl"
        from herald.datastore import Direction, NLFLPair, Provenance, write_pairs

        write_pairs(
            [
                NLFLPair(
                    id=f"p{i}", formal_text="f", informal_text="i",
                    direction=Direction.NL_TO_FL, provenance=Provenance.ORIGINAL,
                )
                for i in range(10)
            ],
            pairs_file,
        )
        code = run("--config", str(mock_config), "--out", str(tmp_path / "mix"),
                   "mix", "--original", str(pairs_file),
                   "--tactic-aug", str(pairs_file), "--informal-aug", str(pairs_file),
                   "--general", str(empty), "--total", "10")
        assert code == 4  # EmptyPool is a pipeline error

    def test_stats_command(self, tmp_path, capsys):
        from herald.datastore import Direction, NLFLPair, Provenance, write_pairs

        data = tmp_path / "d.jsonl"
        write_pairs(
            [
                NLFLPair(
                    id="a", formal_text="f", informal_text="i",
                    direction=Direction.NL_TO_FL, provenance=Provenance.ORIGINAL,
                )
            ],
            data,
        )
        assert run("--out", str(tmp_path / "s"), "stats", "--data", str(data)) == 0
        out = capsys.readouterr().out
        assert "total records" in out


class TestBadInputExits2:
    @pytest.fixture
    def pairs_file(self, tmp_path) -> Path:
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            "".join(
                json.dumps({"id": f"p{i}", "formal_text": "f", "informal_text": "i",
                            "direction": "nl_to_fl", "provenance": "original"}) + "\n"
                for i in range(4)
            ),
            encoding="utf-8",
        )
        return path

    def mix(self, tmp_path, pairs_file, *extra, tactic_aug=None):
        general = tmp_path / "general.jsonl"
        general.write_text('{"id": "g", "text": "t"}\n', encoding="utf-8")
        return run("--out", str(tmp_path / "mix"), "mix", "--original", str(pairs_file),
                   "--tactic-aug", str(tactic_aug or pairs_file),
                   "--informal-aug", str(pairs_file), "--general", str(general),
                   "--total", "4", *extra)

    def test_malformed_input_file_is_named(self, tmp_path, pairs_file, capsys):
        bad = tmp_path / "bad_tactic.jsonl"
        bad.write_text(pairs_file.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
        assert self.mix(tmp_path, pairs_file, tactic_aug=bad) == 2
        assert f"{bad}: line 5: bad pair record" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ratio", "--dirmix"])
    @pytest.mark.parametrize("value", ["1:x:1", "1:2", "0:1:1"])
    def test_bad_ratio_flag(self, tmp_path, pairs_file, capsys, flag, value):
        assert self.mix(tmp_path, pairs_file, flag, value) == 2
        assert repr(value) in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "257"])
    def test_k_out_of_range(self, tmp_path, capsys, k):
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "b0", "informal_text": "p holds."}\n', encoding="utf-8")
        out = tmp_path / "val"
        assert run("--out", str(out), "validate", "--bench", str(bench), "--k", k) == 2
        assert f"k must be in [1, 256], got {k}" in capsys.readouterr().err
        assert not out.exists()
