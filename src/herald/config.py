"""Pipeline configuration: one JSON file, flags override individual keys.

Key set (all optional) and JSON types:

* ``paths``: corpus_export, source_dir, template_registry, tactic_notes,
  example_store, general_data (a string, or null for none), output_dir (a
  string).
* ``roles``: informalizer / translator / back_translator / nli_judge /
  augmenter, each ``{"provider": "mock" | "http", "model_id": a string or
  null, "base_url": a string or null, "temperature": a number (an integer
  too), "max_output_tokens": an integer}``.  HTTP providers read their key
  from ``HERALD_API_KEY_<ROLE>``.
* ``knobs``: integers retrieval_k, pass_k, dedup_seed, mix_seed,
  compile_timeout_ms, neighbor_limit, max_in_flight, retry_limit and
  backoff_base_ms; max_prompt_chars and request_budget (an integer or null);
  strings ratio ("a:b:c"), dirmix ("x:y:z") and header_prelude; the boolean
  short_circuit; and backend (``{"kind": "mock" | "repl", "default_ok": a
  boolean, "command": a list of strings}``).  A knob left out takes the
  :class:`PipelineConfig` default.

An unknown key or a value of another type (:data:`_FIELD_TYPES`, checked by
:func:`herald.datastore.check_shape`) anywhere is a :class:`SchemaError`
naming its JSON path, and a value out of range (:data:`_MINIMUM`, and
``pass_k`` in [1, 256]) an :class:`InvalidInput` naming it: both exit 2.
Every stage runs :meth:`PipelineConfig.check` before it writes anything,
since flags and code may set fields after the file is read.
``max_in_flight`` is the one concurrency knob: every provider call goes
through the pool of ``Gateway(config, out_dir)``, which reads it and the
other operational knobs from this config and checks none of them itself.

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

from .datastore import check_shape, parse_json
from .errors import InvalidInput, SchemaError
from .gateway import (SAMPLE_CAP, HttpChatProvider, MockAugmenter, MockBackTranslator,
                      MockChatProvider, MockInformalizer, MockNliJudge, Role)
from .validate import DEFAULT_HEADER, DEFAULT_TIMEOUT_MS, MockCompilerBackend, ReplBackend

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
                raise InvalidInput(f"$.roles.{role_name}.base_url must be set for an http provider")
            provider = HttpChatProvider(self.base_url, role_name)
        else:
            raise InvalidInput(f'$.roles.{role_name}.provider must be "mock" or "http", '
                               f"got {json.dumps(self.provider)}")
        return Role(provider, model_id, self.temperature, self.max_output_tokens)


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
                raise InvalidInput("$.knobs.backend.command must be set for a repl backend")
            return ReplBackend(self.command)
        raise InvalidInput(f'$.knobs.backend.kind must be "mock" or "repl", '
                           f"got {json.dumps(self.kind)}")


def parse_ratio(text: str, where: str) -> tuple[int, int, int]:
    """``a:b:c`` with three positive integers, from the config file or a flag;
    ``where`` names it in an error (``$.knobs.dirmix``, ``--dirmix``)."""
    try:
        values = tuple(int(p) for p in text.split(":"))
    except ValueError:
        raise InvalidInput(f"{where} must look like 1:2:1, got {text!r}") from None
    if len(values) != 3 or any(v < 1 for v in values):
        raise InvalidInput(f"{where} needs 3 positive components, got {text!r}")
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
    compile_timeout_ms: int = DEFAULT_TIMEOUT_MS
    ratio: tuple[int, int, int] = (1, 2, 1)
    dirmix: tuple[int, int, int] = (2, 2, 1)
    header_prelude: str = DEFAULT_HEADER
    neighbor_limit: int = 5
    max_prompt_chars: int | None = None
    short_circuit: bool = True
    max_in_flight: int = 8
    retry_limit: int = 3
    backoff_base_ms: int = 50
    request_budget: int | None = None

    def check(self) -> None:
        """Raise for any field a stage cannot run with, whether it came from a
        file, a flag or code: a value of another JSON type than its
        :data:`_FIELD_TYPES` is a :class:`SchemaError`, one below its
        :data:`_MINIMUM`, a missing path, or a role or backend that does not
        build (no process starts) an :class:`InvalidInput`, each naming its
        JSON path.  Only :class:`RoleConfig`'s own fields of a role count,
        whatever its class.  Each stage calls this before it writes anything."""
        sections = [("$.paths", self, _PATHS), ("$.knobs", self, _KNOBS - {"backend"}),
                    ("$.knobs.backend", self.backend, _BACKEND_FIELDS),
                    *((f"$.roles.{name}", role, _ROLE_FIELDS) for name, role in self.roles.items())]
        for where, obj, names in sections:
            section = {name: _spelled(name, getattr(obj, name)) for name in sorted(names)}
            check_shape(section, {name: _FIELD_TYPES[name] for name in section}, where)
            for name, value in section.items():
                if name in _MINIMUM and value is not None and value < _MINIMUM[name]:
                    raise InvalidInput(f"{where}.{name} must be >= {_MINIMUM[name]}, got {value}")
        if not 1 <= self.pass_k <= SAMPLE_CAP:
            raise InvalidInput(f"$.knobs.pass_k must be in [1, {SAMPLE_CAP}], got {self.pass_k}")
        for name in _PATH_KEYS:
            if (value := getattr(self, name)) is not None and not Path(value).exists():
                raise InvalidInput(f"$.paths.{name} names {value}, which does not exist")
        for name in ROLE_NAMES:
            self.role(name)
        self.backend.build()

    __post_init__ = check

    def role(self, name: str) -> Role:
        if name not in _MOCKS_BY_ROLE:
            raise InvalidInput(f"unknown role {name!r}")
        return self.roles.get(name, RoleConfig()).build(name)

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
    ``"a:b:c"``, a path as a string, a command as a list."""
    if isinstance(value, tuple):
        return ":".join(map(str, value)) if name in ("ratio", "dirmix") else list(value)
    return str(value) if isinstance(value, Path) else value


# Every field's shape: its default's type as a config file spells it, an
# integer too for a number, a list of strings for the one list, ``command``, or
# for a field that defaults to None, null or the type its annotation names.
_OR_NULL = {"Path | None": str, "str | None": str, "int | None": int}
_FIELD_TYPES = {
    f.name: (_OR_NULL[f.type], type(None)) if f.default is None
    else (float, int) if type(f.default) is float
    else [str] if f.name == "command"
    else type(_spelled(f.name, f.default))
    for cls in (PipelineConfig, RoleConfig, BackendConfig) for f in fields(cls)
    if f.name not in ("roles", "backend")  # sections, checked field by field
}
# The least value of each bounded field that is set (pass_k is checked on its
# own).  A budget of 0 is valid: the run is answered from the cache alone.
_MINIMUM = {"retrieval_k": 1, "compile_timeout_ms": 1, "neighbor_limit": 1,
            "max_prompt_chars": 1, "max_in_flight": 1, "retry_limit": 0, "backoff_base_ms": 0,
            "request_budget": 0, "temperature": 0, "max_output_tokens": 1}


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
    """``value``, which must be a JSON object whose keys are all in ``allowed``
    and whose values fit their :data:`_FIELD_TYPES` shape, or are objects
    (a section, a role, the backend)."""
    check_shape(value, dict, where)
    for key in value:
        if key not in allowed:
            raise SchemaError(f"unknown {what} {key!r}", f"{where}.{key}")
    check_shape(value, {key: _FIELD_TYPES.get(key, dict) for key in value}, where)
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a config file; an unknown key at any level is a :class:`SchemaError`.

    Flags and code may change the result afterwards; its ``config_digest``
    follows, since it is computed from the fields, not from the file (key
    order, whitespace, keys set to their default and empty sections do not
    count).
    """
    doc = _object(parse_json(Path(path).read_bytes(), str(path)), "$", _SECTIONS, "section")
    paths = _object(doc.get("paths", {}), "$.paths", _PATHS, "path")
    knobs = _object(doc.get("knobs", {}), "$.knobs", _KNOBS, "knob")
    backend = _object(knobs.pop("backend", {}), "$.knobs.backend", _BACKEND_FIELDS, "backend field")
    roles = _object(doc.get("roles", {}), "$.roles", frozenset(ROLE_NAMES), "role")
    for name, role in roles.items():
        _object(role, f"$.roles.{name}", _ROLE_FIELDS, "role field")
    for key in ("ratio", "dirmix"):
        if key in knobs:
            knobs[key] = parse_ratio(knobs[key], f"$.knobs.{key}")
    if "command" in backend:
        backend["command"] = tuple(backend["command"])
    paths = {key: Path(value) if value or key == "output_dir" else None
             for key, value in paths.items()}
    return PipelineConfig(**paths, **knobs, backend=BackendConfig(**backend),
                          roles={name: RoleConfig(**role) for name, role in roles.items()})
