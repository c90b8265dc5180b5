"""Config loading/validation and the HTTP provider wire format."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import pytest

from herald import config as config_module
from herald.config import BackendConfig, PipelineConfig, RoleConfig, load_config
from herald.errors import InvalidInput, ProviderError, SchemaError
from herald.gateway import SAMPLE_CAP, CompletionRequest, FinishReason, HttpChatProvider
from herald.records import CorpusIndex, ProofState, ProofStep
from herald.validate import MockCompilerBackend, ReplBackend


README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, {}))
        assert config.pass_k == 32
        assert config.ratio == (1, 2, 1)
        assert config.dirmix == (2, 2, 1)
        assert len(config.config_digest) == 64

    def test_digest_tracks_file_bytes(self, tmp_path):
        a = load_config(write_config(tmp_path, {"knobs": {"dedup_seed": 1}}))
        b = load_config(write_config(tmp_path, {"knobs": {"dedup_seed": 2}}))
        assert a.config_digest != b.config_digest

    def test_digest_ignores_empty_sections_and_keys_at_their_default(self, tmp_path):
        knobs = {"dedup_seed": 3}
        digests = {
            load_config(write_config(tmp_path, doc)).config_digest
            for doc in ({"roles": {}, "knobs": knobs}, {"knobs": knobs},
                        {"knobs": {**knobs, "pass_k": 32}})
        }
        # The canonical document of a config that spells out no default.
        assert digests == {hashlib.sha256(b'{"knobs":{"dedup_seed":3}}').hexdigest()}

    def test_pass_k_range(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_config(write_config(tmp_path, {"knobs": {"pass_k": 300}}))
        with pytest.raises(InvalidInput):
            load_config(write_config(tmp_path, {"knobs": {"pass_k": 0}}))

    def test_sample_cap(self):
        assert PipelineConfig(pass_k=SAMPLE_CAP).pass_k == SAMPLE_CAP
        with pytest.raises(InvalidInput, match=f"pass_k must be in \\[1, {SAMPLE_CAP}\\]"):
            PipelineConfig(pass_k=SAMPLE_CAP + 1)

    def test_limits_may_be_null(self, tmp_path):
        knobs = {"max_prompt_chars": None, "request_budget": None}
        config = load_config(write_config(tmp_path, {"knobs": knobs}))
        assert config.max_prompt_chars is config.request_budget is None

    def test_retrieval_k_range(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_config(write_config(tmp_path, {"knobs": {"retrieval_k": 0}}))

    def test_unknown_role_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_config(write_config(tmp_path, {"roles": {"wizard": {}}}))

    @pytest.mark.parametrize("key", ["candidate_parallelism", "max_inflight"])
    def test_unknown_knob_rejected(self, tmp_path, key):
        with pytest.raises(SchemaError) as err:
            load_config(write_config(tmp_path, {"knobs": {"pass_k": 2, key: 4}}))
        assert err.value.path == f"$.knobs.{key}"

    @pytest.mark.parametrize("doc, where", [
        ({"paths": {"corpus_exprot": "x.json"}}, "$.paths.corpus_exprot"),
        ({"knob": {"pass_k": 300}}, "$.knob"),
        ({"roles": {"translator": {"modle_id": "gpt"}}}, "$.roles.translator.modle_id"),
        ({"knobs": {"backend": {"kind": "mock", "comand": ["x"]}}}, "$.knobs.backend.comand"),
    ])
    def test_unknown_key_rejected_at_its_path(self, tmp_path, doc, where):
        with pytest.raises(SchemaError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.path == where

    def test_unknown_path_key_exits_2(self, tmp_path, capsys):
        from herald import cli

        config = write_config(tmp_path, {"paths": {"corpus_exprot": "x.json"}})
        assert cli.main(["--config", config, "stats", "--data", "x.jsonl"]) == 2
        assert "$.paths.corpus_exprot" in capsys.readouterr().err

    def test_every_role_field_loads(self, tmp_path):
        role = {"provider": "http", "model_id": "m", "base_url": "http://localhost:1",
                "temperature": 0.25, "max_output_tokens": 64}
        config = load_config(write_config(tmp_path, {"roles": {"augmenter": role}}))
        assert config.roles == {"augmenter": RoleConfig(**role)}

    @pytest.mark.parametrize("doc", [{"knobs": ["pass_k"]}, {"knobs": {"ratio": 5}},
                                     {"knobs": {"backend": None}}, {"paths": []},
                                     {"roles": []}, {"roles": {"translator": "gpt"}},
                                     {"knobs": {"pass_k": 2.0}}, {"knobs": {"mix_seed": False}},
                                     {"knobs": {"ratio": [1, 2, 1]}},
                                     {"knobs": {"header_prelude": None}},
                                     {"knobs": {"max_prompt_chars": True}}])
    def test_malformed_value_rejected(self, tmp_path, doc):
        with pytest.raises(SchemaError):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("doc, where, expected", [
        ({"paths": {"corpus_export": 5}}, "$.paths.corpus_export", "a string or null"),
        ({"paths": {"output_dir": None}}, "$.paths.output_dir", "a string"),
        ({"roles": {"translator": {"temperature": "hot"}}}, "$.roles.translator.temperature",
         "a number or an integer"),
        ({"roles": {"nli_judge": {"temperature": True}}}, "$.roles.nli_judge.temperature",
         "a number or an integer"),
        ({"roles": {"augmenter": {"max_output_tokens": 64.0}}},
         "$.roles.augmenter.max_output_tokens", "an integer"),
        ({"roles": {"translator": {"model_id": 7}}}, "$.roles.translator.model_id",
         "a string or null"),
        ({"knobs": {"backend": {"default_ok": "false"}}}, "$.knobs.backend.default_ok",
         "a boolean"),
        ({"knobs": {"backend": {"command": "lean --run"}}}, "$.knobs.backend.command",
         "a list of strings"),
        ({"knobs": {"backend": {"command": ["lean", 5]}}}, "$.knobs.backend.command",
         "a list of strings"),
        ({"knobs": {"backend": {"command": None}}}, "$.knobs.backend.command",
         "a list of strings"),
    ])
    def test_a_wrongly_typed_value_in_any_section_is_named(self, tmp_path, doc, where, expected):
        with pytest.raises(SchemaError, match=f"must be {expected}, got ") as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.path == where

    def test_an_integer_temperature_loads_as_written(self, tmp_path):
        config = load_config(write_config(tmp_path, {"roles": {"translator": {"temperature": 1}}}))
        assert config.role("translator").temperature == 1

    def test_unknown_knob_exits_2(self, tmp_path, capsys):
        from herald import cli

        config = write_config(tmp_path, {"knobs": {"batch_size": 32}})
        assert cli.main(["--config", config, "stats", "--data", "x.jsonl"]) == 2
        assert "$.knobs.batch_size" in capsys.readouterr().err

    def test_every_knob_overrides_its_default(self, tmp_path):
        knobs = {"retrieval_k": 3, "pass_k": 7, "dedup_seed": 5, "mix_seed": 6,
                 "compile_timeout_ms": 10, "ratio": "3:2:1", "dirmix": "1:1:1",
                 "header_prelude": "import Foo\n", "neighbor_limit": 2,
                 "max_prompt_chars": 900, "short_circuit": False, "max_in_flight": 2,
                 "retry_limit": 1, "backoff_base_ms": 4, "request_budget": 9,
                 "backend": {"kind": "repl", "default_ok": False, "command": ["x"]}}
        config = load_config(write_config(tmp_path, {"knobs": knobs}))
        expected = dict(knobs, ratio=(3, 2, 1), dirmix=(1, 1, 1),
                        backend=BackendConfig(kind="repl", default_ok=False, command=("x",)))
        assert {key: getattr(config, key) for key in knobs} == expected

    def test_readme_example_loads(self, tmp_path):
        doc = readme_config_doc()
        config = readme_without_paths(tmp_path)
        assert config.pass_k == doc["knobs"]["pass_k"]
        assert set(config.roles) == set(doc["roles"])

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_config(
                write_config(tmp_path, {"paths": {"corpus_export": "/does/not/exist"}})
            )

    def test_bad_ratio_string(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_config(write_config(tmp_path, {"knobs": {"ratio": "1:2"}}))

    def test_not_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_config(str(path))


# A value other than the default for every field of the three config classes.
# A new field needs one here, so that it cannot escape the digest unseen.
OTHER_VALUES = {
    PipelineConfig: {
        "corpus_export": Path("export.json"), "source_dir": Path("lean"),
        "template_registry": Path("templates.json"), "tactic_notes": Path("notes.json"),
        "example_store": Path("store"), "general_data": Path("general.jsonl"),
        "output_dir": Path("elsewhere"), "roles": {"translator": RoleConfig(model_id="m")},
        "backend": BackendConfig(kind="repl", command=("lean",)),
        "retrieval_k": 2, "pass_k": 8, "dedup_seed": 3, "mix_seed": 4,
        "compile_timeout_ms": 10, "ratio": (3, 2, 1), "dirmix": (1, 1, 1),
        "header_prelude": "", "neighbor_limit": 2, "max_prompt_chars": 900,
        "short_circuit": False, "max_in_flight": 2, "retry_limit": 1,
        "backoff_base_ms": 4, "request_budget": 9,
    },
    RoleConfig: {"provider": "http", "model_id": "m", "base_url": "http://localhost:1",
                 "temperature": 0.5, "max_output_tokens": 64},
    BackendConfig: {"kind": "repl", "default_ok": False, "command": ("lean",)},
}
OPERATIONAL_KNOBS = {"max_in_flight", "retry_limit", "backoff_base_ms", "request_budget"}
# Where a tree is written does not change what is written in it, and how the
# proof checker's process is started does not change which checker answers.
NOT_COUNTED = OPERATIONAL_KNOBS | {"output_dir", "command"}


class TestConfigDigest:
    @pytest.mark.parametrize("owner, name", [
        pytest.param(owner, f.name, id=f"{owner.__name__}.{f.name}")
        for owner in OTHER_VALUES for f in fields(owner)
    ])
    def test_every_field_counts_but_the_operational_knobs(self, owner, name):
        assert name in OTHER_VALUES[owner], f"give {owner.__name__}.{name} a value above"
        value = OTHER_VALUES[owner][name]
        assert getattr(owner(), name) != value
        config = PipelineConfig()
        if owner is PipelineConfig:
            setattr(config, name, value)  # as the CLI sets a flag, unchecked
        elif owner is RoleConfig:
            config.roles = {"translator": RoleConfig(**{name: value})}
        else:
            config.backend = BackendConfig(**{name: value})
        changed = config.config_digest != PipelineConfig().config_digest
        assert changed == (name not in NOT_COUNTED)

    def test_a_code_built_config_hashes_as_its_file(self, tmp_path):
        written = load_config(write_config(tmp_path, {"knobs": {"dedup_seed": 3}}))
        assert PipelineConfig(dedup_seed=3).config_digest == written.config_digest
        assert PipelineConfig().config_digest == hashlib.sha256(b'{"knobs":{}}').hexdigest()

    def test_fields_of_a_role_subclass_do_not_count(self):
        @dataclass(frozen=True)
        class MeteredRole(RoleConfig):
            latency_ms: float = 15.0

        config = PipelineConfig(roles={"translator": MeteredRole()})
        assert config.config_digest == PipelineConfig().config_digest
        config.roles = {"translator": MeteredRole(temperature=0.5)}
        assert config.config_digest == PipelineConfig(
            roles={"translator": RoleConfig(temperature=0.5)}).config_digest

    def test_a_path_counts_as_written(self, tmp_path):
        written = load_config(write_config(tmp_path, {"paths": {"general_data": str(tmp_path)}}))
        config = PipelineConfig()
        config.general_data = tmp_path
        assert config.config_digest == written.config_digest
        canonical = json.dumps({"knobs": {}, "paths": {"general_data": str(tmp_path)}},
                               separators=(",", ":"))
        assert written.config_digest == hashlib.sha256(canonical.encode()).hexdigest()


def readme_config_doc() -> dict:
    """The README's example config, which names every knob."""
    text = README.read_text(encoding="utf-8")
    return json.loads(re.search(r"## Configuration.*?```json\n(.*?)\n```", text, re.S).group(1))


@dataclass(frozen=True)
class MeteredRole(RoleConfig):
    """A role subclass with fields of its own, as a benchmark harness adds."""

    latency_ms: float = 15.0
    meter: object = field(default_factory=object, compare=False)


def readme_without_paths(tmp_path) -> PipelineConfig:
    doc = readme_config_doc()
    del doc["paths"]  # placeholders, which do not exist
    return load_config(write_config(tmp_path, doc))


# The digests of configs that every loader so far accepted: each must keep its
# digest, or the output directories claimed under it would refuse to resume.
PINNED_DIGESTS = [
    (readme_without_paths, "e609b383279d8608383c3ca47002326ed6e45f01bb5aa241a64cbf7a41c6371c"),
    (lambda tmp_path: load_config(write_config(tmp_path, {})),
     "05ccb9227d1386e0d63101296167228da86a63239bba08f41a7eee84e9c4ddd5"),
    (lambda tmp_path: load_config(write_config(tmp_path, {"paths": {"source_dir": ""}})),
     "05ccb9227d1386e0d63101296167228da86a63239bba08f41a7eee84e9c4ddd5"),
    (lambda tmp_path: load_config(
        write_config(tmp_path, {"roles": {"translator": {"temperature": 1}}})),
     "6d65cd5b52a406b9a5a2e46867b39b923d2fa10cb0fc71c79854ac5b24b2279a"),
    (lambda tmp_path: PipelineConfig(
        roles={"translator": MeteredRole(temperature=0.5, latency_ms=3.0)}),
     "2a0628e74739f5531813094522d47e3ea84b4f3684f1b3037abe25368ab24d94"),
    (lambda tmp_path: load_config(write_config(
        tmp_path, {"knobs": {"backend": {"kind": "repl", "command": ["lean", "--run"]}}})),
     "fbfe8e40ddfc38ac085c6726e6ac8f94097efe47beadb9622a6e0812465da9f3"),
    (lambda tmp_path: load_config(
        write_config(tmp_path, {"knobs": {"backend": {"default_ok": False}}})),
     "100cd68958e50db46e26b8e3fb2807de01b4f3eaf0b2d372c41807971441f840"),
]


@pytest.mark.parametrize("make, digest", PINNED_DIGESTS, ids=[
    "readme", "empty", "empty_path", "integer_temperature", "role_subclass", "backend_command",
    "default_ok"])
def test_config_digest_is_pinned(tmp_path, make, digest):
    assert make(tmp_path).config_digest == digest


class TestCheck:
    def test_the_type_table_covers_every_field(self):
        names = {f.name for owner in OTHER_VALUES for f in fields(owner)}
        assert set(config_module._FIELD_TYPES) == names - {"roles", "backend"}

    @pytest.mark.parametrize("owner, name", [
        pytest.param(owner, f.name, id=f"{owner.__name__}.{f.name}")
        for owner in OTHER_VALUES for f in fields(owner) if f.name not in ("roles", "backend")
    ])
    def test_a_wrongly_typed_value_set_in_code_is_named(self, owner, name):
        config = PipelineConfig()
        if owner is RoleConfig:
            config.roles = {"translator": RoleConfig(**{name: {}})}
            where = f"$.roles.translator.{name}"
        elif owner is BackendConfig:
            config.backend = BackendConfig(**{name: {}})
            where = f"$.knobs.backend.{name}"
        else:
            setattr(config, name, {})
            section = "paths" if isinstance(OTHER_VALUES[owner][name], Path) else "knobs"
            where = f"$.{section}.{name}"
        with pytest.raises(SchemaError) as err:
            config.check()
        assert err.value.path == where

    @pytest.mark.parametrize("name, value, message", [
        ("neighbor_limit", 0, "$.knobs.neighbor_limit must be >= 1, got 0"),
        ("max_prompt_chars", 0, "$.knobs.max_prompt_chars must be >= 1, got 0"),
        ("retrieval_k", 0, "$.knobs.retrieval_k must be >= 1, got 0"),
        ("request_budget", -1, "request_budget must be >= 0, got -1"),
        ("max_in_flight", 0, "max_in_flight must be >= 1"),
        ("roles", {"augmenter": RoleConfig(provider="http")},
         "$.roles.augmenter.base_url must be set for an http provider"),
        ("roles", {"translator": RoleConfig(temperature=-3)},
         "$.roles.translator.temperature must be >= 0, got -3"),
        ("roles", {"translator": RoleConfig(max_output_tokens=0)},
         "$.roles.translator.max_output_tokens must be >= 1, got 0"),
        ("backoff_base_ms", -1, "$.knobs.backoff_base_ms must be >= 0, got -1"),
        ("retry_limit", -1, "$.knobs.retry_limit must be >= 0, got -1"),
        ("backend", BackendConfig(kind="repl"),
         "$.knobs.backend.command must be set for a repl backend"),
    ])
    def test_a_value_out_of_range_set_in_code_is_named(self, name, value, message):
        config = PipelineConfig()
        setattr(config, name, value)
        with pytest.raises(InvalidInput) as err:
            config.check()
        assert message in str(err.value)

    def test_a_role_subclass_is_checked_on_the_role_fields_only(self):
        PipelineConfig(roles={"translator": MeteredRole(latency_ms="not a number")}).check()
        with pytest.raises(SchemaError) as err:
            PipelineConfig(roles={"translator": MeteredRole(temperature="hot")})
        assert err.value.path == "$.roles.translator.temperature"

    def test_a_repl_backend_is_built_without_starting_its_process(self, tmp_path):
        marker = tmp_path / "started"
        command = ("sh", "-c", f"touch {marker}")
        PipelineConfig(backend=BackendConfig(kind="repl", command=command)).check()
        assert not marker.exists()


class TestRoleAndBackendBuilding:
    def test_mock_roles_by_name(self):
        for name in ("informalizer", "translator", "back_translator", "nli_judge", "augmenter"):
            role = RoleConfig().build(name)
            assert role.model_id == f"mock-{name}"

    def test_http_role_needs_base_url(self):
        with pytest.raises(InvalidInput):
            RoleConfig(provider="http").build("translator")

    def test_unknown_provider(self):
        with pytest.raises(InvalidInput):
            RoleConfig(provider="carrier-pigeon").build("translator")

    def test_backend_kinds(self):
        assert isinstance(BackendConfig(kind="mock").build(), MockCompilerBackend)
        assert isinstance(
            BackendConfig(kind="repl", command=("true",)).build(), ReplBackend
        )
        with pytest.raises(InvalidInput):
            BackendConfig(kind="quantum").build()
        with pytest.raises(InvalidInput):
            BackendConfig(kind="repl").build()

    def test_pipeline_config_validates_directly(self):
        with pytest.raises(InvalidInput):
            PipelineConfig(pass_k=0)


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text=""):
        self.status_code = status_code
        self.text = text if payload is None else json.dumps(payload)
        self.content = self.text.encode("utf-8")


class FakeSession:
    def __init__(self, response):
        self.response = response
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        return self.response


class TestHttpChatProvider:
    def _provider(self, response, monkeypatch) -> tuple[HttpChatProvider, FakeSession]:
        monkeypatch.setenv("HERALD_API_KEY_TRANSLATOR", "sk-test")
        session = FakeSession(response)
        return (
            HttpChatProvider("https://api.example.com/v1", "translator", session=session),
            session,
        )

    def test_successful_completion(self, monkeypatch):
        payload = {
            "choices": [{"message": {"content": "theorem t : True"}, "finish_reason": "stop"}]
        }
        provider, session = self._provider(FakeResponse(200, payload), monkeypatch)
        request = CompletionRequest(
            prompt_text="translate", temperature=0.7, max_output_tokens=128, model_id="m1"
        )
        completion = provider.generate(request, 0)
        assert completion.text == "theorem t : True"
        assert completion.finish_reason == FinishReason.STOP
        [call] = session.calls
        assert call["url"] == "https://api.example.com/v1/chat/completions"
        assert call["json"]["model"] == "m1"
        assert call["json"]["messages"] == [{"role": "user", "content": "translate"}]
        assert call["json"]["temperature"] == 0.7
        assert call["json"]["max_tokens"] == 128
        assert call["headers"]["Authorization"] == "Bearer sk-test"

    def test_rate_limit_is_transient(self, monkeypatch):
        provider, _ = self._provider(FakeResponse(429), monkeypatch)
        with pytest.raises(ProviderError) as exc:
            provider.generate(CompletionRequest(prompt_text="x"), 0)
        assert exc.value.transient

    def test_client_error_is_fatal(self, monkeypatch):
        provider, _ = self._provider(FakeResponse(400, text="bad request"), monkeypatch)
        with pytest.raises(ProviderError) as exc:
            provider.generate(CompletionRequest(prompt_text="x"), 0)
        assert not exc.value.transient

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("HERALD_API_KEY_TRANSLATOR", raising=False)
        provider = HttpChatProvider(
            "https://api.example.com", "translator", session=FakeSession(FakeResponse(200))
        )
        with pytest.raises(ProviderError) as exc:
            provider.generate(CompletionRequest(prompt_text="x"), 0)
        assert "HERALD_API_KEY_TRANSLATOR" in str(exc.value)

    @pytest.mark.parametrize("body, where", [
        ({"nope": []}, "$.choices"),
        ([{"choices": []}], "$"),
        ({"choices": "x"}, "$.choices"),
        ({"choices": []}, "$.choices"),
        ({"choices": [{"finish_reason": "stop"}]}, "$.choices[0].message"),
        ({"choices": [{"message": {"content": 7}}]}, "$.choices[0].message.content"),
    ], ids=["no_choices", "list", "choices_string", "choices_empty", "no_message",
            "content_number"])
    def test_malformed_body_is_fatal(self, monkeypatch, body, where):
        provider, _ = self._provider(FakeResponse(200, body), monkeypatch)
        with pytest.raises(ProviderError) as exc:
            provider.generate(CompletionRequest(prompt_text="x"), 0)
        assert not exc.value.transient
        assert f"malformed response: {where}: " in str(exc.value)

    def test_body_not_json_is_fatal(self, monkeypatch):
        provider, _ = self._provider(FakeResponse(200, text="<html>"), monkeypatch)
        with pytest.raises(ProviderError, match="malformed response: \\$: not UTF-8 JSON"):
            provider.generate(CompletionRequest(prompt_text="x"), 0)

    def test_null_content_is_a_blank_answer(self, monkeypatch):
        payload = {"choices": [{"message": {"content": None}, "finish_reason": "stop"}]}
        provider, _ = self._provider(FakeResponse(200, payload), monkeypatch)
        completion = provider.generate(CompletionRequest(prompt_text="x"), 0)
        assert completion.text == ""
        assert completion.finish_reason == FinishReason.STOP

    def test_length_finish_reason(self, monkeypatch):
        payload = {"choices": [{"message": {"content": "trunc"}, "finish_reason": "length"}]}
        provider, _ = self._provider(FakeResponse(200, payload), monkeypatch)
        completion = provider.generate(CompletionRequest(prompt_text="x"), 0)
        assert completion.finish_reason == FinishReason.LENGTH


def test_proof_steps_must_be_contiguous():
    from herald.records import DeclarationRecord, DeclKind

    decl = DeclarationRecord(
        full_name="T.t",
        kind=DeclKind.THEOREM,
        signature="theorem t : True",
        docstring=None,
        namespace_path=("T",),
        file_path="T.lean",
        line_span=(1, 1),
        dependencies=frozenset(),
        is_tactic_proof=True,
    )
    closed = ProofState()
    open_state = ProofState(goals=("True",))
    with pytest.raises(InvalidInput):
        CorpusIndex(
            declarations={"T.t": decl},
            proofs={"T.t": (ProofStep("trivial", open_state, closed, 1),)},
        )
