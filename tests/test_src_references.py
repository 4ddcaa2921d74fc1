"""Everything defined in ``src/cxrgen`` is used by the package or the benchmark.

An entry point that only tests call belongs in ``tests/oracles.py``, not in
the package. Every module-level function and class, and every method that
is not a dunder, must be referenced by name (an ``ast.Name`` or an
``ast.Attribute``) somewhere in ``src/cxrgen`` or ``bench/``, or be named in
the ``TRACED`` list of ``bench/tracing.py``. An import does not count as a
reference, so a re-export from ``cxrgen/__init__.py`` keeps nothing alive.
Both trees are read with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

from test_bench_contract import BENCH, traced_names

SRC = Path(__file__).resolve().parents[1] / "src" / "cxrgen"

# Kept although no command calls it: the float64 mode is how the gradient
# checks verify the float32 ops against finite differences.
ALLOWED = {"tensor.default_dtype"}


def definitions(package=SRC):
    """``module.name`` or ``module.Class.method`` of every definition the
    guard covers, mapped to its bare name."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not (item.name.startswith("__") and item.name.endswith("__")):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names(package=SRC, bench=BENCH):
    names = set()
    for path in [*package.glob("*.py"), *bench.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    for _, attr in traced_names():
        names.update(attr.split("."))
    return names


def test_the_scan_sees_the_package():
    found = definitions()
    assert {"model.generate", "tensor.Tensor.item", "metrics.EmbeddingTable"} <= found.keys()


def test_every_definition_in_src_is_referenced():
    names = referenced_names()
    unused = sorted(qualified for qualified, name in definitions().items()
                    if name not in names and qualified not in ALLOWED)
    assert not unused, (f"defined in src/cxrgen but used by no command or benchmark "
                        f"(move test-only code to tests/oracles.py): {unused}")
