"""Print each ``src/cxrgen`` statement that no command reached.

Runs, in this process under ``sys.settrace``, a README walkthrough at small
sizes: ``synth-data``; ``prepare-data`` with 2 subsets; three ``train``
runs (dropout 0.1 with ``--grad-clip``, the image-only model, and one whose
options come from a ``--config`` file); a greedy and a T=0.5 ``generate``
of both walkthrough models; ``evaluate`` of each with an embedding table;
and ``compare``. Then it runs both workloads of ``bench/pipeline.py``,
``desk`` and ``paper-scale`` (each set-up and one cycle), the package's
other caller. Every statement of ``src/cxrgen`` that none of these executed
is printed as ``module.py:line: source``, then a count per module. The
package is imported after tracing starts, so module-level statements count
when the import runs them; docstrings and ``global`` declarations, which
run no code, are not statements here. BLAS runs at the host default: where
that is more than one thread, ``tensor.beside`` has no worker thread, so its
hand-off to one (``_worker.submit``) shows as unreached, although the
benchmark, at one BLAS thread, runs it at paper scale.

A statement reached only by the test suite is a candidate for deletion or
for a move to ``tests/oracles.py``; one that no run reaches may still guard
a bad input, which the walkthrough does not feed. So read the list, do not
delete from it blindly.

Run from the repository root: ``python tests/command_paths.py``. It takes
a few seconds on two cores. The name does not start with ``test_``, so
pytest does not collect it.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cxrgen"
TRAIN = ["--d-model", "32", "--n-heads", "2", "--max-len", "24", "--batch-size", "16",
         "--learning-rate", "0.01", "--epochs", "2"]


def statements(path: Path) -> dict[int, tuple[int, ...]]:
    """Each statement of the module at ``path`` by its first line, mapped to
    the lines whose execution counts as reaching it: a simple statement's
    lines, a compound statement's header (decorators included)."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue   # a docstring, or a bare string, runs nothing
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        found[node.lineno] = tuple(range(first, max(first, last) + 1))
    return found


def walkthrough(root: Path) -> None:
    """The README walkthrough, at small sizes, in ``root``."""
    from cxrgen.cli import main

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(arg) for arg in argv])
        if code:
            raise SystemExit(f"cxrgen {' '.join(map(str, argv))} exited {code}")

    corpus, prep, runs = root / "corpus", root / "prep", root / "runs"
    run("synth-data", "--out", corpus, "--seed", 7, "--n-per-stratum", 12)
    run("prepare-data", "--data", corpus / "dataset.jsonl", "--out", prep, "--seed", 7,
        "--subsets", 2, "--subset-size", 40, "--vocab-cap", 128)
    run("train", "--data", prep, "--subset", 0, "--out", runs / "demo", *TRAIN,
        "--dropout", 0.1, "--grad-clip", 1.0)
    run("train", "--data", prep, "--subset", 0, "--out", runs / "base", *TRAIN,
        "--dropout", 0, "--demographics", "none")
    config = root / "config.json"
    config.write_text(json.dumps({"data": str(prep), "subset": 1, "d-model": 16,
                                  "n-heads": 2, "epochs": 1}))
    run("train", "--config", config, "--out", runs / "config")
    tokens = (prep / "vocab.txt").read_text(encoding="utf-8").split("\n")[:-1]
    rng = np.random.default_rng(0)
    table = root / "embeddings.txt"
    table.write_text("".join(f"{token} {' '.join(map(str, rng.normal(size=4)))}\n"
                             for token in tokens[4:]))
    reports = {}
    for model in ("demo", "base"):
        for label, temperature in (("greedy", 0), ("sampled", 0.5)):
            out = runs / model / label
            run("generate", "--checkpoint", runs / model / "best", "--data", prep,
                "--subset", 0, "--split", "test", "--out", out, "--temperature", temperature,
                "--seed", 1)
            reports[model, label] = out / "report.json"
            run("evaluate", "--hypotheses", out / "hyp.txt", "--references", out / "ref.txt",
                "--embeddings", table, "--unknown-policy", "zero", "--out", out / "report.json")
    run("compare", "--a", reports["demo", "greedy"], reports["demo", "sampled"],
        "--b", reports["base", "greedy"], reports["base", "sampled"],
        "--out", runs / "compare.json")


def bench_workloads(root: Path) -> None:
    """Each workload of ``bench/pipeline.py``: its set-up and one cycle."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import oracles
    import pipeline

    for name in pipeline.PROFILES:
        workload = pipeline.Workload(name, 1, root / name, oracles.count_and_clip_bleu)
        workload.setup()
        workload.cycle(pipeline.Recorder())


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reached = set()
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)   # the worker thread of tensor.beside
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            walkthrough(Path(tmp))
            bench_workloads(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, lines in sorted(statements(path).items()):
            if not any((str(path), number) in reached for number in lines):
                unreached[path.name] += 1
                print(f"{path.name}:{line}: {source[line - 1].strip()}")
    print()
    for name in sorted(unreached):
        print(f"{name:<16} {unreached[name]:>4} unreached")
    print(f"{'total':<16} {sum(unreached.values()):>4} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
