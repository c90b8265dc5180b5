"""Pipeline configuration: one JSON file, flags override individual keys.

Key set (all optional unless noted):

* ``paths``: corpus_export, source_dir, template_registry, tactic_notes,
  example_store, general_data, output_dir.
* ``roles``: informalizer / translator / back_translator / nli_judge /
  augmenter, each ``{"provider": "mock" | "http", "model_id": ...,
  "base_url": ..., "temperature": ...}``.  HTTP providers read their key
  from ``HERALD_API_KEY_<ROLE>``.
* ``knobs``: retrieval_k, pass_k, dedup_seed, mix_seed,
  compile_timeout_ms, ratio ("a:b:c"), dirmix ("x:y:z"), header_prelude,
  neighbor_limit, max_prompt_chars, short_circuit, max_in_flight,
  retry_limit, backoff_base_ms, request_budget, backend
  (``{"kind": "mock"|"repl", "default_ok": ..., "command": [...]}``).
  A knob left out takes the :class:`PipelineConfig` default.

An unknown key anywhere (a top-level section, a path, a role, a role field,
a knob or a backend field) is a :class:`SchemaError` naming its JSON path,
so a misspelled or retired key fails loudly instead of being ignored.

``max_in_flight`` is the one concurrency knob: every provider call goes
through the gateway pool.

:attr:`PipelineConfig.config_digest` covers the config a stage runs with,
whether it came from a file, from flags or from code: it hashes the document
a config file would spell for the resolved fields, so two configs that say
the same thing hash alike however they were made.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import InvalidInput, SchemaError
from .gateway import (
    SAMPLE_CAP,
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


def parse_ratio(text: str) -> tuple[int, int, int]:
    """``a:b:c`` with three positive integers, from the config file or a flag."""
    try:
        values = tuple(int(p) for p in text.split(":"))
    except ValueError:
        raise InvalidInput(f"ratio must look like 1:2:1, got {text!r}") from None
    if len(values) != 3 or any(v < 1 for v in values):
        raise InvalidInput(f"ratio needs 3 positive components, got {text!r}")
    return values


_PATH_KEYS = ("corpus_export", "source_dir", "template_registry",
              "tactic_notes", "example_store", "general_data")


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
    pass_k: int = 32
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

    def __post_init__(self):
        if not 1 <= self.pass_k <= SAMPLE_CAP:
            raise InvalidInput(f"pass_k must be in [1, {SAMPLE_CAP}], got {self.pass_k}")
        if self.retrieval_k < 1:
            raise InvalidInput(f"retrieval_k must be >= 1, got {self.retrieval_k}")
        for name in _PATH_KEYS:
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

    @property
    def config_digest(self) -> str:
        """SHA-256 of the config as canonical JSON, without the operational knobs.

        The document is the one a config file would spell: a field equal to
        its default in type and value counts as left out, and a section left
        empty as missing.  ``knobs`` is always there, so a config that sets
        nothing but defaults hashes as ``{"knobs":{}}``.  Only the fields of
        :class:`RoleConfig` count for a role, whatever its class.
        ``output_dir`` does not count: where a tree is written does not
        change what is written in it, and ``--out`` may name it instead.

        Nor does the backend's ``command`` (its ``kind`` and ``default_ok``
        do): it says how the checker's process starts, not which checker
        answers.  The compile-check cache leaves it out of its key too, and
        informalize never runs the checker.
        """
        default = PipelineConfig()
        roles = {name: changed for name, role in self.roles.items()
                 if (changed := _changed(role, RoleConfig(), _ROLE_FIELDS))}
        knobs = _changed(self, default, _KNOBS - _OPERATIONAL_KNOBS - {"backend"})
        if backend := _changed(self.backend, default.backend, _BACKEND_FIELDS - {"command"}):
            knobs["backend"] = backend
        sections = {"paths": _changed(self, default, _PATH_KEYS), "roles": roles}
        doc = {name: section for name, section in sections.items() if section}
        canonical = json.dumps({**doc, "knobs": knobs}, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Every field under ``knobs`` in the config file; the rest come from
# ``paths`` and ``roles`` or from the file itself.
_KNOBS = frozenset(f.name for f in fields(PipelineConfig)) - {*_PATH_KEYS, "output_dir", "roles"}
_SECTIONS = frozenset({"paths", "roles", "knobs"})
_PATHS = frozenset({*_PATH_KEYS, "output_dir"})
_ROLE_FIELDS = frozenset(f.name for f in fields(RoleConfig))
_BACKEND_FIELDS = frozenset(f.name for f in fields(BackendConfig))
# Knobs that change how a run proceeds but not what it writes, so a rerun may
# change them (say, raise a spent budget) and still resume.
_OPERATIONAL_KNOBS = frozenset({"max_in_flight", "retry_limit", "backoff_base_ms", "request_budget"})


def _spelled(name: str, value):
    """Field ``name``'s ``value`` as a config file spells it: a ratio as
    ``"a:b:c"``, a path as a string."""
    if name in ("ratio", "dirmix"):
        return ":".join(map(str, value))
    return str(value) if isinstance(value, Path) else value


def _changed(obj, default, names) -> dict:
    """The fields ``names`` of ``obj`` that differ from ``default``'s in type
    or value, spelled as a config file spells them."""
    changed = {}
    for name in names:
        value = _spelled(name, getattr(obj, name))
        base = _spelled(name, getattr(default, name))
        if type(value) is not type(base) or value != base:
            changed[name] = value
    return changed


def _object(value, where: str, allowed: frozenset[str], what: str) -> dict:
    """``value``, which must be a JSON object whose keys are all in ``allowed``."""
    if not isinstance(value, dict):
        raise SchemaError("must be a JSON object", where)
    for key in value:
        if key not in allowed:
            raise SchemaError(f"unknown {what} {key!r}", f"{where}.{key}")
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a config file; an unknown key at any level is a :class:`SchemaError`.

    Flags and code may change the result afterwards; its ``config_digest``
    follows, since it is computed from the fields, not from the file (key
    order, whitespace, keys set to their default and empty sections do not
    count).
    """
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}", str(path)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object", str(path))

    _object(doc, "$", _SECTIONS, "section")
    paths = _object(doc.get("paths", {}), "$.paths", _PATHS, "path")
    knobs = _object(doc.get("knobs", {}), "$.knobs", _KNOBS, "knob")
    roles = {
        name: RoleConfig(**_object(fields_doc, f"$.roles.{name}", _ROLE_FIELDS, "role field"))
        for name, fields_doc in _object(
            doc.get("roles", {}), "$.roles", frozenset(ROLE_NAMES), "role"
        ).items()
    }
    backend_doc = _object(
        knobs.pop("backend", {}), "$.knobs.backend", _BACKEND_FIELDS, "backend field"
    )

    def path_or_none(key: str) -> Path | None:
        value = paths.get(key)
        return Path(value) if value else None

    try:
        for key in ("ratio", "dirmix"):
            if key in knobs:
                knobs[key] = parse_ratio(knobs[key])
        if "command" in backend_doc:
            backend_doc["command"] = tuple(backend_doc["command"] or ())
        return PipelineConfig(
            **{key: path_or_none(key) for key in _PATH_KEYS},
            output_dir=Path(paths.get("output_dir", "out")),
            roles=roles,
            backend=BackendConfig(**backend_doc),
            **knobs,
        )
    except InvalidInput:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad config value: {exc}", str(path)) from exc
