"""The package runs on numpy alone: no command imports scipy, and the
package metadata declares numpy as its only dependency.

numpy's wheel bundles its OpenBLAS as ``libscipy_openblas*``, which
``cxrgen.tensor`` loads through ``ctypes`` to read the BLAS thread count.
That shared library is not the scipy package and adds no ``scipy`` module,
so the guard looks at module names only."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_importing_the_command_line_imports_no_scipy():
    code = ("import json, sys, cxrgen.cli, cxrgen.tensor; print(json.dumps({"
            "'scipy': sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),"
            "'blas_threads': cxrgen.tensor.BLAS_THREADS}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loaded = json.loads(run.stdout)
    assert loaded["scipy"] == []
    if any((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        assert loaded["blas_threads"] is not None   # the bundled BLAS was loaded all the same


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies] == ["numpy"]
