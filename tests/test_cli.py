"""CLI subcommands: exit codes, artifacts, resume, end-to-end determinism."""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from pathlib import Path

import pytest
from conftest import (
    make_corpus,
    run_full_pipeline,
    tree_digest,
    write_shared_fixtures,
)

from herald import cli
from herald import config as config_module
from herald.datastore import read_pairs
from herald.gateway import Completion, MockAugmenter, MockInformalizer
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

    def generate(self, request, sample_index):
        Scripted.calls += 1
        if Scripted.calls == Scripted.blank_at + 1:
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

    @pytest.mark.parametrize("k", ["0", "257"])
    def test_k_out_of_range(self, tmp_path, capsys, k):
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "b0", "informal_text": "p holds."}\n', encoding="utf-8")
        out = tmp_path / "val"
        assert run("--out", str(out), "validate", "--bench", str(bench), "--k", k) == 2
        assert f"k must be in [1, 256], got {k}" in capsys.readouterr().err
        assert not out.exists()
