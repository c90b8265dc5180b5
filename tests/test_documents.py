"""Every JSON document herald reads goes through one shape check: its
errors, and that no malformed export, registry or config escapes exit 2."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import one_proof_export
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herald.config import load_config
from herald.datastore import check_shape
from herald.errors import InvalidInput, SchemaError
from herald.ingest import parse_jixia_export
from herald.prompts import TemplateRegistry

TEMPLATES = Path(__file__).resolve().parent.parent / "src" / "herald" / "data" / "templates.json"


@pytest.mark.parametrize("value, shape, where, message", [
    (True, int, "$", "must be an integer, got true"),
    (1, bool, "$", "must be a boolean, got 1"),
    (1, (float, int), "$", None),
    (1.5, int, "$", "must be an integer, got 1.5"),
    (None, (str, type(None)), "$", None),
    ([1, "2"], [int], "$", "must be a list of integers, got [1, \"2\"]"),
    ({"a": 1}, {"a": int, "b": [str]}, "$.b", "must be a list of strings, but is missing"),
    ({"a": [{"b": ["x", 5]}]}, {"a": [{"b": [str]}]}, "$.a[0].b", "must be a list of strings"),
    ({"x": "s", "y": 5}, {str: str}, "$['y']", "must be a string, got 5"),
    ({"a": 1, "extra": None}, {"a": int}, "$", None),
    ("x" * 200, int, "$", "must be an integer, got \"" + "x" * 76 + "..."),
    ({}, [{"a": int}], "$", "must be a list of objects, got {}"),
    ([["a"], 5], [[str]], "$[1]", "must be a list of strings, got 5"),
    ([["a", "b"], ["c"]], [[str, str]], "$[1]", 'must be [a string, a string], got ["c"]'),
    ([1, 2, 3], [int, int], "$", "must be [an integer, an integer], got [1, 2, 3]"),
    ([1, True], [int, int], "$", "must be [an integer, an integer], got [1, true]"),
    ([1, 2], [int, int], "$", None),
])
def test_check_shape_names_the_first_misfit(value, shape, where, message):
    if message is None:
        check_shape(value, shape)
        return
    with pytest.raises(SchemaError) as err:
        check_shape(value, shape)
    assert err.value.path == where
    assert message in str(err.value)


def test_check_shape_prefixes_its_where():
    with pytest.raises(SchemaError) as err:
        check_shape({"k": [1]}, {"k": [str]}, "notes.json: $")
    assert str(err.value).startswith("notes.json: $.k: must be a list of strings, got [1]")


# --- no malformed document escapes exit 2 ----------------------------------------

# The exceptions cli.main maps to exit 2.
EXIT_2 = (SchemaError, InvalidInput)

VALID_CONFIG = {
    "paths": {"output_dir": "out", "source_dir": ""},
    "roles": {"translator": {"provider": "mock", "model_id": "m", "temperature": 0.5,
                             "max_output_tokens": 64}},
    "knobs": {"pass_k": 4, "ratio": "1:2:1", "dirmix": "2:2:1", "request_budget": 10,
              "max_prompt_chars": None, "header_prelude": "import Mathlib",
              "short_circuit": False,
              "backend": {"kind": "mock", "default_ok": True, "command": ["lean"]}},
}
VALID = {
    "export": one_proof_export(),
    "registry": json.loads(TEMPLATES.read_text(encoding="utf-8")),
    "config": VALID_CONFIG,
}


def _keys(value) -> set[str]:
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


# Keys from the valid documents, so that random objects reach past the top level.
_KEYS = st.sampled_from(sorted(_keys(VALID)))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["1", "theorem", "literal", "mock", "1:2:1"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=4), children, max_size=5),
    max_leaves=25,
)
# One value of each JSON type, to swap in for a node of another.
SWAPS = [None, True, 0, -1, 1.5, "", "x", [], {}, [5], ["x", "y", "z"], {"x": 5}]


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))


@st.composite
def broken(draw, kind: str):
    """``VALID[kind]`` with one node deleted or swapped for another type's value."""
    doc = json.loads(json.dumps(VALID[kind]))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from(SWAPS) | json_values)
    if not path:
        return value
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[last]
    else:
        node[last] = value
    return doc


def _parse(kind: str, doc, tmp: Path) -> None:
    text = json.dumps(doc, ensure_ascii=False)
    if kind == "export":
        parse_jixia_export(text)
    elif kind == "registry":
        TemplateRegistry.from_json(text)
    else:
        path = tmp / "config.json"
        path.write_text(text, encoding="utf-8")
        load_config(path)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("documents")


@pytest.mark.parametrize("kind", sorted(VALID))
def test_the_valid_documents_parse(kind, tmp):
    _parse(kind, VALID[kind], tmp)


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
@example(data=None)
def test_no_malformed_document_escapes_exit_2(kind, tmp, data):
    # The example is a registry (or export, or config) that is a list.
    doc = [] if data is None else data.draw(json_values | broken(kind))
    try:
        _parse(kind, doc, tmp)
    except EXIT_2:
        pass
