"""Pipeline configuration: one JSON file, flags override individual keys.

Key set (all optional unless noted):

* ``paths``: corpus_export, source_dir, template_registry, tactic_notes,
  example_store, general_data, output_dir.
* ``roles``: informalizer / translator / back_translator / nli_judge /
  augmenter, each ``{"provider": "mock" | "http", "model_id": ...,
  "base_url": ..., "temperature": ...}``.  HTTP providers read their key
  from ``HERALD_API_KEY_<ROLE>``.
* ``knobs``: retrieval_k, batch_size, pass_k, seed, dedup_seed, mix_seed,
  compile_timeout_ms, ratio ("a:b:c"), dirmix ("x:y:z"), header_prelude,
  neighbor_limit, max_prompt_chars, short_circuit, max_in_flight,
  retry_limit, backoff_base_ms, request_budget, candidate_parallelism,
  backend
  (``{"kind": "mock"|"repl", "default_ok": ..., "command": [...]}``).

``batch_size`` only shapes the ``batches`` field of ``levels.json``;
informalize concurrency is ``max_in_flight`` alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidInput, SchemaError
from .gateway import (
    Gateway,
    GatewayConfig,
    HttpChatProvider,
    MockAugmenter,
    MockBackTranslator,
    MockChatProvider,
    MockInformalizer,
    MockNliJudge,
    Role,
)
from .validate import MockCompilerBackend, ReplBackend

_MOCKS_BY_ROLE = {
    "informalizer": MockInformalizer,
    "translator": MockChatProvider,
    "back_translator": MockBackTranslator,
    "nli_judge": MockNliJudge,
    "augmenter": MockAugmenter,
}

ROLE_NAMES = tuple(_MOCKS_BY_ROLE)


@dataclass(frozen=True)
class RoleConfig:
    provider: str = "mock"
    model_id: str | None = None
    base_url: str | None = None
    temperature: float = 1.0
    max_output_tokens: int = 2048

    def build(self, role_name: str) -> Role:
        model_id = self.model_id or f"mock-{role_name}"
        if self.provider == "mock":
            provider = _MOCKS_BY_ROLE[role_name]()
        elif self.provider == "http":
            if not self.base_url:
                raise InvalidInput(f"role {role_name}: http provider needs base_url")
            provider = HttpChatProvider(self.base_url, role_name)
        else:
            raise InvalidInput(f"role {role_name}: unknown provider {self.provider!r}")
        return Role(
            provider=provider,
            model_id=model_id,
            temperature=self.temperature,
            max_output_tokens=self.max_output_tokens,
        )


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"
    default_ok: bool = True
    command: tuple[str, ...] = ()

    def build(self):
        if self.kind == "mock":
            return MockCompilerBackend(default_ok=self.default_ok)
        if self.kind == "repl":
            if not self.command:
                raise InvalidInput("repl backend needs a command")
            return ReplBackend(self.command)
        raise InvalidInput(f"unknown backend kind {self.kind!r}")


def _parse_ratio(text: str, parts: int) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(":"))
    except ValueError:
        raise InvalidInput(f"ratio must look like 1:2:1, got {text!r}") from None
    if len(values) != parts or any(v < 1 for v in values):
        raise InvalidInput(f"ratio needs {parts} positive components, got {text!r}")
    return values


@dataclass
class PipelineConfig:
    corpus_export: Path | None = None
    source_dir: Path | None = None
    template_registry: Path | None = None
    tactic_notes: Path | None = None
    example_store: Path | None = None
    general_data: Path | None = None
    output_dir: Path = Path("out")
    roles: dict[str, RoleConfig] = field(default_factory=dict)
    backend: BackendConfig = field(default_factory=BackendConfig)

    retrieval_k: int = 1
    batch_size: int = 32
    pass_k: int = 32
    seed: int = 0
    dedup_seed: int = 0
    mix_seed: int = 0
    compile_timeout_ms: int = 60000
    ratio: tuple[int, int, int] = (1, 2, 1)
    dirmix: tuple[int, int, int] = (2, 2, 1)
    header_prelude: str = "import Mathlib\n"
    neighbor_limit: int = 5
    max_prompt_chars: int | None = None
    short_circuit: bool = True
    max_in_flight: int = 8
    retry_limit: int = 3
    backoff_base_ms: int = 50
    request_budget: int | None = None
    candidate_parallelism: int = 1
    config_digest: str = "unconfigured"

    def __post_init__(self):
        if not 1 <= self.pass_k <= 256:
            raise InvalidInput(f"pass_k must be in [1, 256], got {self.pass_k}")
        if self.retrieval_k < 1:
            raise InvalidInput(f"retrieval_k must be >= 1, got {self.retrieval_k}")
        if self.batch_size < 1:
            raise InvalidInput(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("corpus_export", "source_dir", "template_registry",
                     "tactic_notes", "example_store", "general_data"):
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise InvalidInput(f"configured path {name}={value} does not exist")

    def role(self, name: str) -> Role:
        if name not in _MOCKS_BY_ROLE:
            raise InvalidInput(f"unknown role {name!r}")
        return self.roles.get(name, RoleConfig()).build(name)

    def gateway(self, cache_dir: Path | None = None) -> Gateway:
        return Gateway(
            GatewayConfig(
                max_in_flight=self.max_in_flight,
                retry_limit=self.retry_limit,
                backoff_base_ms=self.backoff_base_ms,
                cache_dir=cache_dir,
                request_budget=self.request_budget,
            )
        )


def load_config(path: str | Path) -> PipelineConfig:
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}", str(path)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object", str(path))

    paths = doc.get("paths", {})
    knobs = doc.get("knobs", {})
    roles_doc = doc.get("roles", {})
    for name in roles_doc:
        if name not in _MOCKS_BY_ROLE:
            raise SchemaError(f"unknown role {name!r}", "$.roles")

    def path_or_none(key: str) -> Path | None:
        value = paths.get(key)
        return Path(value) if value else None

    backend_doc = knobs.get("backend", {})
    try:
        return PipelineConfig(
            corpus_export=path_or_none("corpus_export"),
            source_dir=path_or_none("source_dir"),
            template_registry=path_or_none("template_registry"),
            tactic_notes=path_or_none("tactic_notes"),
            example_store=path_or_none("example_store"),
            general_data=path_or_none("general_data"),
            output_dir=Path(paths.get("output_dir", "out")),
            roles={
                name: RoleConfig(
                    provider=rd.get("provider", "mock"),
                    model_id=rd.get("model_id"),
                    base_url=rd.get("base_url"),
                    temperature=rd.get("temperature", 1.0),
                    max_output_tokens=rd.get("max_output_tokens", 2048),
                )
                for name, rd in roles_doc.items()
            },
            backend=BackendConfig(
                kind=backend_doc.get("kind", "mock"),
                default_ok=backend_doc.get("default_ok", True),
                command=tuple(backend_doc.get("command", []) or []),
            ),
            retrieval_k=knobs.get("retrieval_k", 1),
            batch_size=knobs.get("batch_size", 32),
            pass_k=knobs.get("pass_k", 32),
            seed=knobs.get("seed", 0),
            dedup_seed=knobs.get("dedup_seed", 0),
            mix_seed=knobs.get("mix_seed", 0),
            compile_timeout_ms=knobs.get("compile_timeout_ms", 60000),
            ratio=_parse_ratio(knobs.get("ratio", "1:2:1"), 3),
            dirmix=_parse_ratio(knobs.get("dirmix", "2:2:1"), 3),
            header_prelude=knobs.get("header_prelude", "import Mathlib\n"),
            neighbor_limit=knobs.get("neighbor_limit", 5),
            max_prompt_chars=knobs.get("max_prompt_chars"),
            short_circuit=knobs.get("short_circuit", True),
            max_in_flight=knobs.get("max_in_flight", 8),
            retry_limit=knobs.get("retry_limit", 3),
            backoff_base_ms=knobs.get("backoff_base_ms", 50),
            request_budget=knobs.get("request_budget"),
            candidate_parallelism=knobs.get("candidate_parallelism", 1),
            config_digest=hashlib.sha256(raw).hexdigest(),
        )
    except InvalidInput:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad config value: {exc}", str(path)) from exc
