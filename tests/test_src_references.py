"""Everything defined in ``src/cxrgen`` is used by the package or the benchmark.

An entry point that only tests call belongs in ``tests/oracles.py``, not in
the package. Every module-level function and class, and every method that
is not a dunder, must be referenced by name (an ``ast.Name`` or an
``ast.Attribute``) somewhere in ``src/cxrgen`` or ``bench/``, or be named in
the ``TRACED`` list of ``bench/tracing.py``. An import does not count as a
reference, so a re-export from ``cxrgen/__init__.py`` keeps nothing alive,
and neither does a function's own parameter or local of the same name.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_names(function):
    """The parameters of ``function`` and the names its body binds (not
    those declared ``global``), without descending into nested scopes."""
    args = function.args
    own = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                           args.vararg, args.kwarg) if a is not None}
    declared_global = set()
    body = function.body if isinstance(function.body, list) else [function.body]
    pending = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            own.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
            pending.extend(node.decorator_list)
            continue
        elif isinstance(node, ast.Lambda):
            continue
        elif isinstance(node, ast.alias):
            own.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            own.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        pending.extend(ast.iter_child_nodes(node))
    return own - declared_global


def names_in(tree):
    """Every name and attribute ``tree`` mentions, except a name inside a
    function that the function (or one enclosing it) binds: a parameter or
    local called ``relu`` does not refer to a module-level ``relu``."""
    names = set()

    def visit(node, local):
        if isinstance(node, _SCOPES):
            # decorators, defaults and annotations belong to the enclosing scope
            args = node.args
            outer = [*getattr(node, "decorator_list", ()), *args.defaults,
                     *(d for d in args.kw_defaults if d is not None),
                     *(a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                              args.vararg, args.kwarg)
                       if a is not None and a.annotation is not None)]
            if getattr(node, "returns", None) is not None:
                outer.append(node.returns)
            for child in outer:
                visit(child, local)
            inner = local | _own_names(node)
            for child in (node.body if isinstance(node.body, list) else [node.body]):
                visit(child, inner)
            return
        if isinstance(node, ast.Name) and node.id not in local:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return names


def referenced_names(package=SRC, bench=BENCH):
    names = set()
    for path in [*package.glob("*.py"), *bench.glob("*.py")]:
        names |= names_in(ast.parse(path.read_text(encoding="utf-8")))
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


def test_a_function_s_own_names_are_not_references():
    source = """
def relu(a):
    return a

def linear(x, relu=False):
    if relu:
        return x

def norm(x):
    relu = x
    return relu

def apply(xs):
    def inner():
        return relu
    relu = 0
    return list(map(lambda relu: relu, xs)), inner
"""
    assert "relu" not in names_in(ast.parse(source))
    # read where no enclosing function binds it, the name is a reference
    for user in ("def act(x):\n    return relu(x)\n", "def act(x=relu):\n    return x\n",
                 "def act(x):\n    global relu\n    relu = x\n", "act = relu\n",
                 "def act(relu):\n    return relu\nact(lambda x: relu(x))\n"):
        assert "relu" in names_in(ast.parse(source + user)), user
