"""Print the code size of each ``src/cxrgen`` module and the option count
of each ``cxrgen`` command.

A code line is a physical line that holds a token other than a comment,
once docstrings (the leading string of a module, class or function) are
taken out; blank lines do not count. A defaulted parameter is a ``def``
parameter with a default value, positional or keyword-only. A command's
options are its argparse actions other than ``-h``.

Run from the repository root: ``python tests/code_size.py``. The name does
not start with ``test_``, so pytest does not collect it.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cxrgen"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def measure(source: str) -> tuple[int, int]:
    """The code lines and defaulted ``def`` parameters of ``source``."""
    tree = ast.parse(source)
    docstrings = set()
    defaulted = 0
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaulted += len(node.args.defaults)
            defaulted += sum(default is not None for default in node.args.kw_defaults)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings), defaulted


def option_counts() -> dict[str, int]:
    """The number of options of each ``cxrgen`` command, by command name."""
    sys.path.insert(0, str(PACKAGE.parent))
    from cxrgen.cli import build_parser
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: sum(not isinstance(action, argparse._HelpAction) for action in sub._actions)
            for name, sub in commands.choices.items()}


def main() -> int:
    total_lines = total_defaulted = 0
    print(f"{'module':<28} {'lines':>6} {'defaulted':>9}")
    for path in sorted(PACKAGE.rglob("*.py")):
        lines, defaulted = measure(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_defaulted += defaulted
        print(f"{path.relative_to(PACKAGE).as_posix():<28} {lines:>6} {defaulted:>9}")
    print(f"{'total':<28} {total_lines:>6} {total_defaulted:>9}")
    counts = option_counts()
    print(f"\n{'command':<28} {'options':>7}")
    for name, count in counts.items():
        print(f"{name:<28} {count:>7}")
    print(f"{'total':<28} {sum(counts.values()):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
