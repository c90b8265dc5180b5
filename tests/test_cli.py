"""CLI subcommands: exit codes, artifacts, resume, end-to-end determinism."""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import (
    make_corpus,
    one_proof_export,
    run_full_pipeline,
    tree_digest,
    write_shared_fixtures,
)

from herald import cli, depgraph
from herald import config as config_module
from herald.datastore import read_pairs
from herald.gateway import Completion, MockAugmenter, MockInformalizer, digest
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

    @pytest.mark.parametrize("knob", ["retry_limit", "backoff_base_ms", "request_budget"])
    def test_negative_gateway_knob_exits_2(self, tmp_path, export_file, mock_config, capsys,
                                           knob):
        out = self._setup(tmp_path, export_file, mock_config)
        negative = tmp_path / "negative.json"
        negative.write_text(json.dumps({"knobs": {knob: -1}}), encoding="utf-8")
        capsys.readouterr()
        assert run("--config", str(negative), "--out", str(tmp_path / "inf"),
                   "informalize", "--index", str(out / "index.json")) == 2
        assert f"{knob} must be >= 0, got -1" in capsys.readouterr().err

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

    def test_dry_run_writes_exactly_the_first_wave(self, tmp_path, export_file, mock_config):
        out = self._setup(tmp_path, export_file, mock_config)
        index = make_corpus(12)
        levels = depgraph.stratify(depgraph.build_graph(index)).levels
        inf = tmp_path / "inf"
        dry_run = ("--config", str(mock_config), "--out", str(inf),
                   "informalize", "--index", str(out / "index.json"), "--dry-run")
        assert run(*dry_run) == 0
        written = {path.name for path in (inf / "prompts").iterdir()}
        assert written == {f"{name}.txt" for name in levels[0]}  # no step prompt

        # Statements below level 4 translated, no proof yet: the dry run
        # writes level 4's prompts and the step prompts of their proofs.
        shutil.rmtree(inf)
        assert run(*dry_run[:-1]) == 0
        (inf / "proofs.jsonl").unlink()
        for level in range(4, len(levels)):
            (inf / f"statements_level_{level}.jsonl").unlink()
        assert run(*dry_run) == 0
        translated = {name for level in levels[:4] for name in level}
        steps = {
            f"{name}.step{i}.txt"
            for name in index.tactic_proof_names() if name in translated
            for i in range(len(index.proofs[name]))
        }
        assert steps
        written = {path.name for path in (inf / "prompts").iterdir()}
        assert written == {f"{name}.txt" for name in levels[4]} | steps

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

    def test_out_resumes_a_tree_begun_at_paths_output_dir(self, tmp_path, export_file,
                                                          mock_config):
        out = self._setup(tmp_path, export_file, mock_config)
        inf = tmp_path / "inf"
        config = tmp_path / "budget.json"
        config.write_text(json.dumps({"paths": {"output_dir": str(inf)},
                                      "knobs": {"request_budget": 3}}), encoding="utf-8")
        index = str(out / "index.json")
        assert run("--config", str(config), "informalize", "--index", index) == 3
        assert run("--out", str(inf), "informalize", "--index", index) == 0


class Scripted:
    """Mixed into a mock role: ``calls`` counts the calls of every role it is
    mixed into, and call number ``blank_at`` (from 0) answers blank."""

    blank_at = -1
    calls = 0
    _lock = threading.Lock()  # augment's calls run on several pool threads

    def generate(self, request, sample_index):
        with Scripted._lock:
            Scripted.calls += 1
            number = Scripted.calls
        if number == Scripted.blank_at + 1:
            return Completion(text="   ")
        return super().generate(request, sample_index)


class ScriptedInformalizer(Scripted, MockInformalizer):
    pass


class ScriptedAugmenter(Scripted, MockAugmenter):
    pass


def informalized(tmp_path, export_file, mock_config) -> tuple[str, str]:
    """``--index`` and ``--pairs`` for ``augment``: the index and the
    informalize output of ``export_file``."""
    index, inf = tmp_path / "index", tmp_path / "inf"
    assert run("--out", str(index), "ingest", "--export", str(export_file)) == 0
    assert run("--config", str(mock_config), "--out", str(inf),
               "informalize", "--index", str(index / "index.json")) == 0
    return str(index / "index.json"), str(inf)


@pytest.mark.parametrize("stage, blank_at", [
    (("informalize",), 0),  # the first statement, so no record reaches disk
    (("augment", "--tactic"), 1),  # the second tactic-aug statement; the first is cached
    # the second statement's first strategy: a blank is no drop, so the walk
    # must not move on to the next strategy
    (("augment", "--informal"), 1),
])
def test_blank_answer_exits_3_then_resumes_to_the_clean_tree(
    tmp_path, export_file, mock_config, monkeypatch, capsys, stage, blank_at
):
    index, pairs = informalized(tmp_path, export_file, mock_config)
    informal = "--informal" in stage
    argv = (*stage, "--index", index, *(("--pairs", pairs) if informal else ()))
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert run("--config", str(mock_config), "--out", str(ref), *argv) == 0

    # One request in flight, so the blank answer goes to a fixed request.
    serial = tmp_path / "serial.json"
    doc = json.loads(mock_config.read_text(encoding="utf-8"))
    doc["knobs"]["max_in_flight"] = 1
    serial.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(Scripted, "blank_at", blank_at)
    monkeypatch.setattr(Scripted, "calls", 0)
    if informal:
        monkeypatch.setitem(config_module._MOCKS_BY_ROLE, "augmenter", ScriptedAugmenter)
    else:
        monkeypatch.setitem(config_module._MOCKS_BY_ROLE, "informalizer", ScriptedInformalizer)
    capsys.readouterr()
    assert run("--config", str(serial), "--out", str(out), *argv) == 3
    err = capsys.readouterr().err
    assert "blank answer" in err and "rerun the same command to resume" in err
    log = out / "cache" / "completions.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
    assert len(lines) >= blank_at
    assert all(json.loads(line)["text"].strip() for line in lines)

    monkeypatch.undo()
    assert run("--config", str(mock_config), "--out", str(out), *argv) == 0
    assert tree_digest(out) == tree_digest(ref)


class TestInformalAugmentResume:
    """``augment --tactic --informal`` stopped midway resumes to the clean tree."""

    @pytest.fixture
    def clean(self, tmp_path, export_file, mock_config, monkeypatch):
        """The argv of the run, its clean output and its provider calls; every
        role called counts in ``Scripted.calls`` from here on."""
        index, pairs = informalized(tmp_path, export_file, mock_config)
        monkeypatch.setitem(config_module._MOCKS_BY_ROLE, "informalizer", ScriptedInformalizer)
        monkeypatch.setitem(config_module._MOCKS_BY_ROLE, "augmenter", ScriptedAugmenter)
        monkeypatch.setattr(Scripted, "calls", 0)
        argv = ("augment", "--tactic", "--informal", "--index", index, "--pairs", pairs)
        ref = tmp_path / "ref"
        assert run("--config", str(mock_config), "--out", str(ref), *argv) == 0
        return argv, ref, Scripted.calls

    def test_budget_cut_in_the_informal_loop(self, tmp_path, mock_config, capsys, clean):
        argv, ref, clean_calls = clean
        manifest = json.loads((ref / "augment_run_manifest.json").read_text(encoding="utf-8"))
        budget = manifest["tactic_aug_pairs"] + manifest["informal_aug_pairs"] // 2
        assert manifest["tactic_aug_pairs"] < budget < clean_calls
        config = tmp_path / "budget.json"
        doc = json.loads(mock_config.read_text(encoding="utf-8"))
        doc["knobs"]["request_budget"] = budget
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", str(config), "--out", str(out), *argv) == 3
        assert "rerun the same command to resume" in capsys.readouterr().err

        Scripted.calls = 0
        assert run("--config", str(mock_config), "--out", str(out), *argv) == 0
        assert Scripted.calls == clean_calls - budget
        assert tree_digest(out) == tree_digest(ref)

    def test_torn_completion_log(self, tmp_path, mock_config, clean):
        argv, ref, _ = clean
        data = (ref / "cache" / "completions.jsonl").read_bytes()
        rng = random.Random(11)
        offsets = {0, data.index(b"\n") + 1, len(data) - 1, *rng.sample(range(len(data)), 6)}
        assert len(offsets) >= 8
        for offset in sorted(offsets):
            out = tmp_path / f"cut{offset}"
            shutil.copytree(ref, out)
            # informal_aug.jsonl and the manifest are written after the loop.
            (out / "informal_aug.jsonl").unlink()
            (out / "augment_run_manifest.json").unlink()
            os.truncate(out / "cache" / "completions.jsonl", offset)
            Scripted.calls = 0
            assert run("--config", str(mock_config), "--out", str(out), *argv) == 0
            lost = data.count(b"\n") - data[:offset].count(b"\n")
            assert Scripted.calls == lost, offset
            assert tree_digest(out) == tree_digest(ref), offset


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

    def test_informal_augment_without_pairs_exits_2_before_any_call(
        self, tmp_path, export_file, mock_config, monkeypatch, capsys
    ):
        index = tmp_path / "index"
        assert run("--out", str(index), "ingest", "--export", str(export_file)) == 0
        monkeypatch.setitem(config_module._MOCKS_BY_ROLE, "informalizer", ScriptedInformalizer)
        monkeypatch.setitem(config_module._MOCKS_BY_ROLE, "augmenter", ScriptedAugmenter)
        monkeypatch.setattr(Scripted, "calls", 0)
        out = tmp_path / "aug"
        assert run("--config", str(mock_config), "--out", str(out), "augment", "--tactic",
                   "--informal", "--index", str(index / "index.json")) == 2
        assert "needs the original pairs" in capsys.readouterr().err
        assert Scripted.calls == 0
        assert [path for path in out.rglob("*") if path.is_file()] == []

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

    def test_validate_rerun_under_another_translator_exits_2(self, tmp_path, capsys):
        bench = write_shared_fixtures(tmp_path / "fixtures")["bench"]
        val = tmp_path / "val"
        budget, other = tmp_path / "budget.json", tmp_path / "other.json"
        budget.write_text(json.dumps({"knobs": {"request_budget": 30, "max_in_flight": 1}}),
                          encoding="utf-8")
        other.write_text(json.dumps({"roles": {"translator": {"model_id": "other"}}}),
                         encoding="utf-8")
        argv = ("--out", str(val), "validate", "--bench", str(bench), "--k", "4")
        assert run("--config", str(budget), *argv) == 3
        reports = (val / "reports.jsonl").read_bytes()
        assert reports, "the cut run kept some reports"
        capsys.readouterr()
        assert run("--config", str(other), *argv) == 2
        assert "refusing to resume" in capsys.readouterr().err
        assert (val / "reports.jsonl").read_bytes() == reports

    def test_end_to_end_determinism(self, tmp_path):
        fixtures = write_shared_fixtures(tmp_path / "fixtures")
        run_full_pipeline(fixtures, tmp_path / "run1")
        run_full_pipeline(fixtures, tmp_path / "run2")
        assert tree_digest(tmp_path / "run1") == tree_digest(tmp_path / "run2")

    def test_mix_empty_general_pool_exits_2(self, tmp_path, export_file, mock_config):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        pairs_file = tmp_path / "pairs.jsonl"
        from herald.datastore import Direction, NLFLPair, Provenance, write_pairs_atomic

        write_pairs_atomic(
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
        from herald.datastore import Direction, NLFLPair, Provenance, write_pairs_atomic

        data = tmp_path / "d.jsonl"
        write_pairs_atomic(
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


def config_digest_of_run(tmp_path: Path, name: str, knobs: dict, *argv: str) -> str:
    """The config digest in the run manifest of ``argv`` under a config file
    whose knobs are ``knobs``."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"knobs": knobs}), encoding="utf-8")
    out = tmp_path / name
    assert run("--config", str(config), "--out", str(out), *argv) == 0
    [manifest] = out.glob("*_run_manifest.json")
    return json.loads(manifest.read_text(encoding="utf-8"))["config_digest"]


def mix_inputs(tmp_path: Path, general: str = "general") -> list[str]:
    """``mix`` arguments: four original pairs as every pool, and a general
    pool of one record in ``<general>.jsonl``."""
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(
        json.dumps({"id": f"p{i}", "formal_text": "f", "informal_text": "i",
                    "direction": "nl_to_fl", "provenance": "original"}) + "\n"
        for i in range(4)
    ), encoding="utf-8")
    path = tmp_path / f"{general}.jsonl"
    path.write_text('{"id": "g", "text": "t"}\n', encoding="utf-8")
    return ["--original", str(pairs), "--tactic-aug", str(pairs), "--informal-aug",
            str(pairs), "--general", str(path), "--total", "4"]


@pytest.mark.parametrize("flags, knobs", [
    (["--seed", "5", "ingest"], {"dedup_seed": 5, "mix_seed": 5}),
    (["--seed", "5", "augment", "--dedup-seed", "9"], {"dedup_seed": 9, "mix_seed": 5}),
    (["mix", "--ratio", "1:1:1", "--dirmix", "1:1:1"], {"ratio": "1:1:1", "dirmix": "1:1:1"}),
])
def test_knob_flags_count_in_the_config_digest(tmp_path, export_file, flags, knobs):
    inputs = {
        "ingest": ["--export", str(export_file)],
        "augment": ["--index", str(export_file), "--tactic"],
        "mix": mix_inputs(tmp_path),
    }
    command = next(arg for arg in flags if arg in inputs)
    flagged = config_digest_of_run(tmp_path, "flagged", {}, *flags, *inputs[command])
    written = config_digest_of_run(tmp_path, "written", knobs, command, *inputs[command])
    neither = config_digest_of_run(tmp_path, "neither", {}, command, *inputs[command])
    assert flagged == written != neither


@pytest.mark.parametrize("argv, fields", [
    (["augment", "--dedup-seed", "3"], {"dedup_seed": 3}),
    (["--seed", "3", "augment"], {"dedup_seed": 3, "mix_seed": 3}),
])
def test_a_code_built_config_hashes_as_its_flag_and_file_twins(tmp_path, export_file,
                                                               argv, fields):
    inputs = ["--index", str(export_file), "--tactic"]
    flagged = config_digest_of_run(tmp_path, "flagged", {}, *argv, *inputs)
    written = config_digest_of_run(tmp_path, "written", fields, "augment", *inputs)
    assert config_module.PipelineConfig(**fields).config_digest == flagged == written


def test_input_path_flags_count_in_the_config_digest(tmp_path, export_file):
    # Two stages run from different inputs under one config must not claim
    # the same config: ``ingest --export`` and ``mix --general`` name them.
    other = tmp_path / "other.json"
    other.write_text(serialize_index(make_corpus(20)), encoding="utf-8")
    ingests = {config_digest_of_run(tmp_path, f"ingest{i}", {}, "ingest", "--export", str(path))
               for i, path in enumerate((export_file, other))}
    mixes = {config_digest_of_run(tmp_path, name, {}, "mix", *mix_inputs(tmp_path, name))
             for name in ("general_a", "general_b")}
    assert len(ingests) == len(mixes) == 2


# --- the compile-check cache, through a REPL -----------------------------------

FAKE_REPL = [sys.executable, str(Path(__file__).parent / "fake_repl.py")]


def repl_config(path: Path, log: Path, **knobs) -> Path:
    """A config whose backend is ``fake_repl.py`` logging every source to ``log``."""
    backend = {"kind": "repl", "command": [*FAKE_REPL, "--log", str(log)]}
    path.write_text(json.dumps({"knobs": {"backend": backend, **knobs}}), encoding="utf-8")
    return path


def drain(log: Path) -> list[str]:
    """The sources the REPL processes received since the last drain."""
    if not log.exists():
        return []
    sources = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    log.unlink()
    return sources


def repl_bench(path: Path) -> Path:
    """Per pair of items: one the judge accepts at its first candidate, one
    whose every candidate compiles and is rejected (its text is cut in the
    candidate), one whose every candidate fails to compile."""
    texts = []
    for i in range(2):
        texts += [f"OK short {i}",
                  f"OK {i}, but this statement runs past the forty characters kept",
                  f"no proof {i}"]
    path.write_text("".join(json.dumps({"id": f"b{i}", "informal_text": text}) + "\n"
                            for i, text in enumerate(texts)), encoding="utf-8")
    return path


def test_validate_resumed_after_a_budget_cut_checks_no_source_twice(tmp_path, capsys):
    log = tmp_path / "sent.jsonl"
    plain = repl_config(tmp_path / "plain.json", log)
    budget = repl_config(tmp_path / "budget.json", log, request_budget=20, max_in_flight=1)
    argv = ("validate", "--bench", str(repl_bench(tmp_path / "bench.jsonl")), "--k", "3")
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert run("--config", str(plain), "--out", str(ref), *argv) == 0
    clean = drain(log)
    assert len(clean) == len(set(clean)) == 2 * (1 + 3 + 3)

    assert run("--config", str(budget), "--out", str(out), *argv) == 3
    assert "rerun the same command to resume" in capsys.readouterr().err
    first = drain(log)
    assert run("--config", str(plain), "--out", str(out), *argv) == 0
    rest = drain(log)
    assert first and rest, "the budget cut the run between two checks"
    assert len(first + rest) == len(set(first + rest))
    assert set(first + rest) == set(clean)
    assert tree_digest(out) == tree_digest(ref)


def test_validate_resumes_under_a_checker_command_with_one_more_flag(tmp_path, capsys):
    # The command says how the checker's process starts, not which checker
    # answers, so it does not bind the directory.
    backend = {"kind": "repl", "command": FAKE_REPL}
    budget = tmp_path / "budget.json"
    budget.write_text(json.dumps({"knobs": {"backend": backend, "request_budget": 20}}),
                      encoding="utf-8")
    logged = repl_config(tmp_path / "logged.json", tmp_path / "sent.jsonl")
    argv = ("validate", "--bench", str(repl_bench(tmp_path / "bench.jsonl")), "--k", "3")
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert run("--config", str(logged), "--out", str(ref), *argv) == 0
    assert run("--config", str(budget), "--out", str(out), *argv) == 3
    capsys.readouterr()
    assert run("--config", str(logged), "--out", str(out), *argv) == 0
    assert "refusing to resume" not in capsys.readouterr().err
    assert tree_digest(out) == tree_digest(ref)


def test_second_tactic_augment_makes_no_check(tmp_path, export_file):
    log = tmp_path / "sent.jsonl"
    config = repl_config(tmp_path / "config.json", log)
    index = tmp_path / "index"
    assert run("--out", str(index), "ingest", "--export", str(export_file)) == 0
    argv = ("--config", str(config), "--out", str(tmp_path / "aug"),
            "augment", "--index", str(index / "index.json"), "--tactic")
    assert run(*argv) == 0
    assert drain(log)
    before = tree_digest(tmp_path / "aug")
    assert run(*argv) == 0
    assert drain(log) == []
    assert tree_digest(tmp_path / "aug") == before


def test_malformed_check_log_line_exits_2_naming_it(tmp_path, capsys):
    config = repl_config(tmp_path / "config.json", tmp_path / "sent.jsonl")
    argv = ("--config", str(config), "--out", str(tmp_path / "val"),
            "validate", "--bench", str(repl_bench(tmp_path / "bench.jsonl")), "--k", "3")
    assert run(*argv) == 0
    log = tmp_path / "val" / "cache" / "checks.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    lines[0] = lines[0][:5] + b"\n"
    log.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run(*argv) == 2
    assert f"{log}: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("token, code", [
    ("REPLY_LIST", 4), ("REPLY_OK_STRING", 4), ("REPLY_DIAGNOSTICS_STRING", 4), ("NOT_UTF8", 4),
    ("EXIT", 0),
])
def test_a_faulty_repl_reply_exits_with_its_code_and_caches_nothing_from_it(
    tmp_path, capsys, token, code
):
    # A process that exits mid-check is a timeout, seen at once, not after
    # the check's 30 s; a reply of the wrong shape is a backend failure.
    log = tmp_path / "sent.jsonl"
    config = repl_config(tmp_path / "config.json", log, compile_timeout_ms=30000)
    bench = tmp_path / "bench.jsonl"
    bench.write_text(json.dumps({"id": "b0", "informal_text": "OK first"}) + "\n"
                     + json.dumps({"id": "b1", "informal_text": f"{token} second"}) + "\n",
                     encoding="utf-8")
    out = tmp_path / "val"
    start = time.monotonic()
    assert run("--config", str(config), "--out", str(out),
               "validate", "--bench", str(bench), "--k", "2") == code
    assert time.monotonic() - start < 15
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 4:
        assert "malformed backend response" in err
    sent = drain(log)
    assert any(token in source for source in sent)
    checks = out / "cache" / "checks.jsonl"
    cached = [json.loads(line)["key"] for line in checks.read_text().splitlines()] \
        if checks.exists() else []
    assert cached == sorted(digest(source) for source in set(sent) if token not in source)


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

    @pytest.mark.parametrize("key, configured, bad", [
        ("tactic_notes", "notes.json", "notes.json"),
        ("example_store", "store", "store/meta.json"),
    ])
    def test_malformed_json_document_is_named(self, tmp_path, export_file, capsys,
                                              key, configured, bad):
        (tmp_path / "store").mkdir()
        (tmp_path / bad).write_text("{broken\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {key: str(tmp_path / configured)}}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert run("--out", str(out), "ingest", "--export", str(export_file)) == 0
        assert run("--config", str(config), "--out", str(tmp_path / "inf"), "informalize",
                   "--index", str(out / "index.json"), "--dry-run") == 2
        assert f"error: {tmp_path / bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ratio", "--dirmix"])
    @pytest.mark.parametrize("value", ["1:x:1", "1:2", "0:1:1"])
    def test_bad_ratio_flag(self, tmp_path, pairs_file, capsys, flag, value):
        assert self.mix(tmp_path, pairs_file, flag, value) == 2
        assert repr(value) in capsys.readouterr().err
        assert not (tmp_path / "mix").exists()

    def test_negative_total_leaves_out_untouched(self, tmp_path, pairs_file, capsys):
        assert self.mix(tmp_path, pairs_file, "--total", "-3") == 2
        assert "total must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "mix").exists()

    @pytest.mark.parametrize("k", ["0", "257"])
    def test_k_out_of_range(self, tmp_path, capsys, k):
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "b0", "informal_text": "p holds."}\n', encoding="utf-8")
        out = tmp_path / "val"
        assert run("--out", str(out), "validate", "--bench", str(bench), "--k", k) == 2
        assert f"k must be in [1, 256], got {k}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry_run"])
    @pytest.mark.parametrize("edit", [
        lambda row: {**row, "id": "ex0"},
        lambda row: {**row, "embedding": row["embedding"][:-1]},
        lambda row: {**row, "embedding": [0.0] * len(row["embedding"])},
    ], ids=["duplicate_id", "odd_dim", "zero_row"])
    def test_malformed_example_store_exits_2_before_the_claim(
        self, tmp_path, monkeypatch, capsys, edit, dry_run
    ):
        fixtures = write_shared_fixtures(tmp_path / "fixtures")
        examples = tmp_path / "fixtures" / "store" / "examples.jsonl"
        rows = [json.loads(line) for line in examples.read_text(encoding="utf-8").splitlines()]
        rows[2] = edit(rows[2])
        examples.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        index = tmp_path / "index"
        assert run("--out", str(index), "ingest", "--export", str(fixtures["export"])) == 0
        monkeypatch.setitem(config_module._MOCKS_BY_ROLE, "informalizer", ScriptedInformalizer)
        monkeypatch.setattr(Scripted, "calls", 0)
        out = tmp_path / "inf"
        capsys.readouterr()
        assert run("--config", str(fixtures["config"]), "--out", str(out), "informalize",
                   "--index", str(index / "index.json"), *dry_run) == 2
        assert f"error: {examples}: bad example store: " in capsys.readouterr().err
        assert Scripted.calls == 0
        assert not (out / "config_digest.txt").exists()

    @pytest.mark.parametrize("stage, knobs, message", [
        ("informalize", {"max_in_flight": "2"}, '$.knobs.max_in_flight: must be an integer'),
        ("informalize", {"request_budget": "5"}, "$.knobs.request_budget: must be an integer"
                                                 " or null"),
        ("informalize", {"neighbor_limit": "5"}, "$.knobs.neighbor_limit: must be an integer"),
        ("informalize", {"max_prompt_chars": "900"}, "$.knobs.max_prompt_chars: must be"),
        ("informalize", {"retrieval_k": True}, "$.knobs.retrieval_k: must be an integer"),
        ("augment", {"dedup_seed": "7"}, "$.knobs.dedup_seed: must be an integer"),
        ("validate", {"header_prelude": 5}, "$.knobs.header_prelude: must be a string"),
        ("validate", {"short_circuit": 0}, "$.knobs.short_circuit: must be a boolean"),
        ("validate", {"compile_timeout_ms": 0}, "compile_timeout_ms must be >= 1, got 0"),
        ("validate", {"compile_timeout_ms": -5, "backend": {"kind": "repl", "command": FAKE_REPL}},
         "compile_timeout_ms must be >= 1, got -5"),
    ])
    def test_bad_knob_exits_2_before_the_claim(self, tmp_path, export_file, capsys,
                                               stage, knobs, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"knobs": knobs}), encoding="utf-8")
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "b0", "informal_text": "p holds."}\n', encoding="utf-8")
        inputs = {"informalize": ["--index", str(export_file)],
                  "augment": ["--index", str(export_file), "--tactic"],
                  "validate": ["--bench", str(bench)]}
        out = tmp_path / "out"
        assert run("--config", str(config), "--out", str(out), stage, *inputs[stage]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ({"id": "b1", "informal_text": 5}, "$.informal_text: must be a string, got 5"),
        ({"id": "b1", "informal_text": ""}, '$.informal_text: must be a non-empty string, got ""'),
        ({"id": "b1", "informal_text": "q.", "header": 5},
         "$.header: must be a string or null, got 5"),
    ])
    def test_bad_bench_row_exits_2_naming_its_line(self, tmp_path, capsys, row, message):
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "b0", "informal_text": "p holds."}\n' + json.dumps(row) + "\n",
                         encoding="utf-8")
        out = tmp_path / "val"
        assert run("--out", str(out), "validate", "--bench", str(bench)) == 2
        err = capsys.readouterr().err
        assert f"{bench}: line 2: bad benchmark record: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("ids, message", [
        (["b0", "b1", "b0"], "line 4: bad benchmark record: id 'b0' repeats line 1"),
        ([None, "b1", "None"], "line 4: bad benchmark record: id 'None' repeats line 1"),
        ([7, "7"], "line 3: bad benchmark record: id '7' repeats line 1"),
    ])
    def test_repeated_bench_id_exits_2_naming_both_lines(self, tmp_path, capsys, ids, message):
        bench = tmp_path / "bench.jsonl"
        rows = [json.dumps({"id": i, "informal_text": f"p{n} holds."}) for n, i in enumerate(ids)]
        bench.write_text(rows[0] + "\n\n" + "\n".join(rows[1:]) + "\n", encoding="utf-8")
        out = tmp_path / "val"
        assert run("--out", str(out), "validate", "--bench", str(bench)) == 2
        assert f"{bench}: {message}" in capsys.readouterr().err
        assert not out.exists()


# --- one config check before any write -----------------------------------------


def stage_argv(tmp_path: Path, export_file: Path, stage: str) -> list[str]:
    """``stage`` and its input flags, on ``export_file`` or a one-item bench."""
    bench = tmp_path / "bench.jsonl"
    bench.write_text('{"id": "b0", "informal_text": "p holds."}\n', encoding="utf-8")
    return {
        "ingest": ["ingest", "--export", str(export_file)],
        "stratify": ["stratify", "--index", str(export_file)],
        "informalize": ["informalize", "--index", str(export_file)],
        "augment": ["augment", "--index", str(export_file), "--tactic"],
        "mix": ["mix", *mix_inputs(tmp_path)],
        "validate": ["validate", "--bench", str(bench)],
    }[stage]


def exit_code(*argv: str) -> int:
    """:func:`run`, or the code of the ``SystemExit`` by which argparse refuses a flag."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def assert_refused_before_any_write(code: int, err: str, out: Path, names: str) -> None:
    assert code == 2, err
    assert "error: " in err and names in err, err
    assert "Traceback" not in err
    assert not out.exists(), sorted(out.rglob("*"))


STAGES = ["ingest", "stratify", "informalize", "augment", "mix", "validate"]
# One bad value per section, for every stage; then three that a stage's own
# run reaches late: a string boolean, a command string and a misspelled provider.
SECTION_MISTAKES = [
    ("path", {"paths": {"corpus_export": 5}}, "$.paths.corpus_export"),
    ("role_field", {"roles": {"translator": {"temperature": "hot"}}},
     "$.roles.translator.temperature"),
    ("knob", {"knobs": {"neighbor_limit": 0}}, "$.knobs.neighbor_limit"),
    ("backend_field", {"knobs": {"backend": {"kind": "lean"}}}, "$.knobs.backend.kind"),
]
CONFIG_MISTAKES = [
    pytest.param(stage, doc, where, id=f"{name}-{stage}")
    for name, doc, where in SECTION_MISTAKES for stage in STAGES
] + [
    pytest.param("validate", {"knobs": {"backend": {"default_ok": "false"}}},
                 "$.knobs.backend.default_ok", id="default_ok"),
    pytest.param("validate", {"knobs": {"backend": {"kind": "repl", "command": "lean --run"}}},
                 "$.knobs.backend.command", id="command"),
    pytest.param("informalize", {"roles": {"informalizer": {"provider": "htp"}}},
                 "$.roles.informalizer.provider", id="provider"),
    # Ranges that a provider call, a gateway or a mixture would check late.
    pytest.param("validate", {"roles": {"translator": {"temperature": -3}}},
                 "$.roles.translator.temperature must be >= 0, got -3", id="temperature"),
    pytest.param("validate", {"roles": {"translator": {"max_output_tokens": 0}}},
                 "$.roles.translator.max_output_tokens must be >= 1, got 0",
                 id="max_output_tokens"),
    pytest.param("informalize", {"knobs": {"request_budget": -1}},
                 "$.knobs.request_budget must be >= 0, got -1", id="request_budget"),
    pytest.param("augment", {"knobs": {"max_in_flight": 0}},
                 "$.knobs.max_in_flight must be >= 1, got 0", id="max_in_flight"),
    pytest.param("mix", {"knobs": {"dirmix": "1:2"}},
                 "$.knobs.dirmix needs 3 positive components, got '1:2'", id="dirmix"),
]


@pytest.mark.parametrize("stage, doc, where", CONFIG_MISTAKES)
def test_a_config_mistake_exits_2_before_any_write_and_the_fixed_config_runs(
    tmp_path, export_file, capsys, stage, doc, where
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    argv = stage_argv(tmp_path, export_file, stage)
    code = run("--config", str(config), "--out", str(out), *argv)
    assert_refused_before_any_write(code, capsys.readouterr().err, out, f"error: {where}")
    config.write_text("{}", encoding="utf-8")
    assert run("--config", str(config), "--out", str(out), *argv) == 0


# --k, --ratio and --dirmix: TestBadInputExits2.
@pytest.mark.parametrize("stage, flags, names", [
    ("informalize", ["--budget", "-1"], "request_budget must be >= 0, got -1"),
    ("augment", ["--dedup-seed", "x"], "argument --dedup-seed: invalid int value: 'x'"),
    ("ingest", ["--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ("mix", ["--dirmix", "1:2"], "--dirmix needs 3 positive components, got '1:2'"),
    ("mix", ["--ratio", "1:x:1"], "--ratio must look like 1:2:1, got '1:x:1'"),
], ids=["budget", "dedup_seed", "seed", "dirmix", "ratio"])
def test_a_bad_flag_value_exits_2_before_any_stage_writes(tmp_path, export_file, capsys,
                                                          stage, flags, names):
    out = tmp_path / "out"
    argv = stage_argv(tmp_path, export_file, stage)
    # --seed is a flag of the command, the others of their stage.
    argv = [*flags, *argv] if flags[0] == "--seed" else [*argv, *flags]
    code = exit_code("--out", str(out), *argv)
    assert_refused_before_any_write(code, capsys.readouterr().err, out, names)


# --- malformed documents ----------------------------------------------------------


def edit_at(path, value):
    """An edit of an export that sets the value at ``path``; ``...`` deletes it."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is ...:
            del doc[last]
        else:
            doc[last] = value
    return edit


STEP = ("proofs", "A", 0)
# A value of another JSON type for each declaration field.
WRONG_TYPE = {"full_name": 5, "kind": 5, "signature": None, "docstring": 5,
              "namespace_path": "Mathlib", "file_path": ["T.lean"], "line_span": [1, True],
              "dependencies": [5], "is_tactic_proof": 1}
EXPORT_FAULTS = [
    *(pytest.param(edit_at(("declarations", 0, field), ...), f"$.declarations[0].{field}",
                   id=f"missing-{field}")
      for field in WRONG_TYPE),
    *(pytest.param(edit_at(("declarations", 0, field), value), f"$.declarations[0].{field}",
                   id=f"type-{field}")
      for field, value in WRONG_TYPE.items()),
    pytest.param(edit_at((*STEP, "tactic_text"), ...), "$.proofs['A'][0].tactic_text",
                 id="missing-tactic_text"),
    pytest.param(edit_at((*STEP, "tactic_text"), ["intro"]), "$.proofs['A'][0].tactic_text",
                 id="type-tactic_text"),
    pytest.param(edit_at((*STEP, "state_before", "hypotheses"), ...),
                 "$.proofs['A'][0].state_before.hypotheses", id="missing-hypotheses"),
    pytest.param(edit_at((*STEP, "state_before", "hypotheses"), {"p": "Prop"}),
                 "$.proofs['A'][0].state_before.hypotheses", id="type-hypotheses"),
    pytest.param(edit_at((*STEP, "state_after", "goals"), ...),
                 "$.proofs['A'][0].state_after.goals", id="missing-goals"),
    pytest.param(edit_at((*STEP, "state_after", "goals"), [["p"]]),
                 "$.proofs['A'][0].state_after.goals", id="type-goals"),
    pytest.param(edit_at(("head_statements", "T.lean"), 5), "$.head_statements['T.lean']",
                 id="type-head_statement"),
    pytest.param(edit_at(("declarations", 0, "surprise"), 1), "$.declarations[0]",
                 id="unknown-field"),
    pytest.param(edit_at(("declarations", 0, "kind"), "axiom"), "$.declarations[0].kind",
                 id="bad-kind"),
    pytest.param(edit_at(("declarations", 0, "line_span"), [1, 2, 3]),
                 "$.declarations[0].line_span", id="three-item-line_span"),
    pytest.param(edit_at((*STEP, "state_before", "hypotheses", 1), ["q", "Prop", "extra"]),
                 "$.proofs['A'][0].state_before.hypotheses[1]", id="hypothesis-not-a-pair"),
    pytest.param(edit_at((*STEP, "state_after", "hypotheses", 2), ["p", "Prop"]),
                 "$.proofs['A'][0].state_after.hypotheses", id="repeated-hypothesis"),
    pytest.param(edit_at((*STEP, "tactic_text"), ""), "$.proofs['A'][0].tactic_text",
                 id="empty-tactic_text"),
    pytest.param(edit_at(("proofs", "C"), []), "$.proofs['C']", id="proof-on-undeclared"),
    pytest.param(edit_at(("proofs", "B"), []), "$.proofs['B']", id="proof-on-definition"),
    pytest.param(edit_at(("proofs", "A"), []), "$.proofs['A']", id="proof-without-steps"),
]


@pytest.mark.parametrize("edit, where", EXPORT_FAULTS)
def test_an_export_fault_exits_2_naming_its_json_path(tmp_path, capsys, edit, where):
    doc = one_proof_export()
    export = tmp_path / "export.json"
    export.write_text(json.dumps(doc), encoding="utf-8")
    assert run("--out", str(tmp_path / "ok"), "ingest", "--export", str(export)) == 0
    edit(doc)
    export.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = run("--out", str(out), "ingest", "--export", str(export))
    assert_refused_before_any_write(code, capsys.readouterr().err, out,
                                    f"error: {export}: {where}: ")


def informalize_with(tmp_path: Path, export_file: Path, **paths: Path) -> int:
    """Exit code of ``informalize`` on ``export_file`` with ``paths`` in the config."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {k: str(v) for k, v in paths.items()}}),
                      encoding="utf-8")
    return run("--config", str(config), "--out", str(tmp_path / "out"), "informalize",
               "--index", str(export_file))


SEGMENT = {"kind": "placeholder", "name": "subject_signature", "required": True}


@pytest.mark.parametrize("key, doc, where", [
    ("template_registry", [], "$"),
    ("template_registry",
     {"schema_version": "1", "templates": [{"id": "t", "applies_to": ["proof"],
                                            "segments": [SEGMENT, {"kind": "literal",
                                                                   "text": 5}]}]},
     "$.templates[0].segments[1].text"),
    ("template_registry",
     {"schema_version": "1", "templates": [{"id": "t", "applies_to": ["proof"],
                                            "segments": [5]}]},
     "$.templates[0].segments"),
    ("tactic_notes", {"intro": "Introduces a hypothesis.", "simp": 5}, "$['simp']"),
], ids=["registry_list", "literal_text", "segment_not_object", "notes_value"])
def test_a_malformed_registry_or_notes_exits_2_naming_the_file_before_the_claim(
    tmp_path, export_file, capsys, key, doc, where
):
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = informalize_with(tmp_path, export_file, **{key: path})
    assert_refused_before_any_write(code, capsys.readouterr().err, tmp_path / "out",
                                    f"error: {path}: {where}: ")


@pytest.mark.parametrize("command", ["ingest", "source", "config", "validate", "stats",
                                     "template_registry", "tactic_notes"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, export_file, capsys, command):
    bad = tmp_path / ("lean/Latin1.lean" if command == "source" else "latin1.json")
    bad.parent.mkdir(exist_ok=True)
    line = json.dumps({"id": "b0", "informal_text": "Satz über Gruppen."}, ensure_ascii=False)
    bad.write_bytes(line.encode("latin-1") + b"\n")
    out = tmp_path / "out"
    if command in ("template_registry", "tactic_notes"):
        code = informalize_with(tmp_path, export_file, **{command: bad})
    else:
        code = run(*{"ingest": ["--out", str(out), "ingest", "--export", str(bad)],
                     "source": ["--out", str(out), "ingest", "--from-source", str(bad.parent)],
                     "config": ["--config", str(bad), "--out", str(out), "stats",
                                "--data", str(export_file)],
                     "validate": ["--out", str(out), "validate", "--bench", str(bad)],
                     "stats": ["--out", str(out), "stats", "--data", str(bad)]}[command])
    line_no = ": line 1" if command in ("validate", "stats") else ""
    assert_refused_before_any_write(code, capsys.readouterr().err, out,
                                    f"error: {bad}{line_no}: ")


def test_a_config_digest_that_is_not_utf8_exits_2_naming_it(tmp_path, export_file, capsys):
    out = tmp_path / "out"
    out.mkdir()
    digest = out / "config_digest.txt"
    digest.write_bytes(b"\xff\xfe\n")
    code = run("--out", str(out), "informalize", "--index", str(export_file))
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"error: {digest}: not UTF-8" in err and "Traceback" not in err, err
    assert list(out.iterdir()) == [digest]


@pytest.mark.parametrize("command", ["stratify", "informalize"])
def test_a_dependency_cycle_exits_4_before_the_output_directory_is_made(
    tmp_path, capsys, command
):
    doc = one_proof_export()
    doc["declarations"][0]["dependencies"] = ["B"]  # A and B now cite each other
    cyclic = tmp_path / "cyc.json"
    cyclic.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = run("--out", str(out), command, "--index", str(cyclic))
    err = capsys.readouterr().err
    assert code == 4, err
    assert "error: " in err and "Traceback" not in err, err
    assert not out.exists(), sorted(out.rglob("*"))


@pytest.mark.parametrize("flag", ["--config", "--bench", "--index", "--data"])
def test_an_input_that_is_a_directory_exits_2(tmp_path, export_file, capsys, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out"
    argv = {"--config": ["--config", str(folder), "--out", str(out), "stats",
                         "--data", str(export_file)],
            "--bench": ["--out", str(out), "validate", "--bench", str(folder)],
            "--index": ["--out", str(out), "informalize", "--index", str(folder)],
            "--data": ["--out", str(out), "stats", "--data", str(folder)]}[flag]
    assert_refused_before_any_write(run(*argv), capsys.readouterr().err, out, str(folder))
