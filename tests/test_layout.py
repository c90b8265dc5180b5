"""The layout of ``src/herald``: every module-level function and class, and
every method of those classes but the dunders, is called by herald itself or
by the benchmark harness, not by the tests alone."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "herald"

# The oracle the tests compare ``query_knn`` against, and the one test hook:
# the mock checker's scripted answers.
ALLOWED = {"retrieval.cosine", "validate.MockCompilerBackend.script"}


def _references(tree: ast.AST) -> Counter:
    """Each name, attribute and string constant in ``tree``, counted by way
    and spelling: ``("name", id)``, ``("attr", attr)`` or ``("str", value)``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            found["attr", node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found["str", node.value] += 1
    return found


def _definitions(module: str, tree: ast.Module):
    """(dotted name, node, ways it is called) of each module-level function
    and class and of each method of those classes, dunders left out.  A
    method is called only through an attribute (``.name``): a parameter or
    local that shares its name is no caller."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield f"{module}.{node.name}", node, ("name", "attr")
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, defs) and not (method.name.startswith("__")
                                                     and method.name.endswith("__")):
                    yield f"{module}.{node.name}.{method.name}", method, ("attr",)


def test_every_src_name_has_a_caller():
    # The harness also wraps some names by their string (perfbench/spans.py).
    harness = Counter()
    for path in (ROOT / "perfbench").glob("*.py"):
        harness += _references(ast.parse(path.read_text(encoding="utf-8")))
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    in_src = sum(map(_references, modules.values()), Counter())
    uncalled = [
        name
        for module, tree in modules.items()
        for name, definition, ways in _definitions(module, tree)
        # A reference inside its own definition (recursion) is no caller.
        if not any(in_src[way, definition.name] > _references(definition)[way, definition.name]
                   or harness[way, definition.name] for way in ways)
        and not harness["str", definition.name]
        and name not in ALLOWED
    ]
    assert uncalled == []


def test_every_error_type_is_raised():
    # An error type that is only caught, or only tested, is a failure path
    # nothing reaches; a base of a raised type is kept with it.
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    bases = {node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
             for node in errors.body if isinstance(node, ast.ClassDef)}
    reached = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in bases:
                    reached.add(exc.id)
    pending = list(reached)
    while pending:
        for base in bases[pending.pop()]:
            if base in bases and base not in reached:
                reached.add(base)
                pending.append(base)
    assert sorted(bases.keys() - reached) == []


def _scopes(module: str, tree: ast.Module):
    """(dotted name, node) of each module-level statement, a class's members
    one by one."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{module}.{node.name}" if isinstance(node, ast.ClassDef) else module
        for member in members:
            yield f"{prefix}.{getattr(member, 'name', '<statement>')}", member


def test_only_the_dispatch_waits_on_a_future():
    # One concurrency mechanism: a stage hands its futures to the dispatch,
    # which waits on whichever finishes first; no stage waits on one future.
    waits = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name, node in _scopes(path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "result"
    ]
    assert waits == ["pipeline._OrderedDispatch.run"]
