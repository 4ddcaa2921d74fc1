"""A host-speed gauge: a fixed kernel that runs no cxrgen code.

On the shared host this benchmark was tuned on, slow phases last from
seconds to minutes and slow the workload by up to a factor of two, even in
the fastest repetition of an operation over a whole run. The gauge is timed
at every stage boundary, and a run's timings are scaled by how fast the
gauge ran in that run, so that runs taken in different phases compare.

The kernel is one single-threaded 400x256 by 256x512 matrix product.
README.md compares it with the other kernels that were tried.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_A, _B = _rng.random((400, 256)), _rng.random((256, 512))
# The kernel's median time on the reference host (2-vCPU Intel Xeon) in a
# quiet phase. It fixes the unit of the scaled timings: reference-host seconds.
REFERENCE_S = 1.7e-3
REPEATS = 3     # a sample is the fastest of this many runs, which drops a stray interrupt


class Gauge:
    """Samples of the kernel over one phase of a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            _A @ _B
            times.append(time.perf_counter() - started)
        self.samples.append(min(times))

    def scale(self) -> float:
        """Reference-host seconds per measured second."""
        return REFERENCE_S / statistics.median(self.samples)
