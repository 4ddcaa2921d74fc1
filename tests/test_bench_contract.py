"""The benchmark's traced names and calls still resolve on the package.

``bench/tracing.py`` wraps cxrgen functions by (module, attribute) name, and
``bench/pipeline.py`` calls them with positional and keyword arguments, so a
rename or a removed parameter in ``src/`` would break benchmark runs without
failing any package test. Both are read from the source with ``ast``;
nothing under ``bench/`` is imported.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
PIPELINE = BENCH / "pipeline.py"


def traced_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def _dotted(node):
    """``a.b.c`` as ["a", "b", "c"], or None for anything but names and attributes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def package_calls(path=PIPELINE):
    """Every ``cxrgen.<module>.<name>...(...)`` call in ``path``, as (the dotted
    name, line, positional count or None after a ``*`` argument, keyword names)."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if not name or name[0] != "cxrgen" or len(name) < 3:
            continue
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
        calls.append((".".join(name), node.lineno,
                      None if starred else len(node.args), keywords))
    return sorted(calls, key=lambda call: call[1])


def test_traced_list_is_not_empty():
    assert len(traced_names()) > 0


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"cxrgen.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"cxrgen.{module} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_pipeline_calls_are_found():
    names = {name for name, *_ in package_calls()}
    assert {"cxrgen.training.fit", "cxrgen.model.generate", "cxrgen.data.split"} <= names


def call_ids(calls):
    """``name#k`` for the k-th call to ``name`` in line order, so that an edit
    that only shifts lines renames no test."""
    seen = Counter()
    ids = []
    for name, *_ in calls:
        ids.append(f"{name}#{seen[name]}")
        seen[name] += 1
    return ids


@pytest.mark.parametrize("name, line, n_positional, keywords", package_calls(),
                         ids=call_ids(package_calls()))
def test_pipeline_call_binds_to_the_signature(name, line, n_positional, keywords):
    """The arguments the benchmark passes fit the callee's signature."""
    _, module, *attrs = name.split(".")
    target = importlib.import_module(f"cxrgen.{module}")
    for attr in attrs:
        assert hasattr(target, attr), f"{PIPELINE.name}:{line}: no {name}"
        target = getattr(target, attr)
    positional = [None] * (n_positional or 0)
    try:
        inspect.signature(target).bind_partial(*positional, **dict.fromkeys(keywords))
    except TypeError as exc:
        raise AssertionError(f"{PIPELINE.name}:{line}: {name}: {exc}") from None
