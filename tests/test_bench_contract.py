"""The benchmark's traced names still resolve on the package.

``bench/tracing.py`` wraps cxrgen functions by (module, attribute) name, so a
rename in ``src/`` would break traced benchmark runs without failing any
package test. The list is read from the source with ``ast``; nothing under
``bench/`` is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_traced_list_is_not_empty():
    assert len(traced_names()) > 0


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"cxrgen.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"cxrgen.{module} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)
