"""Adam optimizer over a named map of parameter tensors.

The optimizer owns the storage of what it updates: parameters, gradients
and both moments each live in one flat buffer of the parameters' dtype, laid
out in the order of the parameter map. ``Adam(params)`` copies each
parameter into its slot and rebinds ``p.data`` to a view of it, one tensor
at a time. ``zero_grad`` hands each parameter its gradient slot
(``Tensor.grad_slot``) and writes nothing to the buffer: backward writes a
parameter's gradient straight into its slot, and a slot that backward did
not write is never read, since its parameter's ``grad`` stays unset. A
gradient reaches the optimizer only through that slot (``p.accumulate_grad``
after ``zero_grad``), and a parameter's ``data`` must stay its slot;
``step`` raises ``ContractError`` naming the parameter otherwise.

``step`` updates each maximal run of adjacent tensors that have a gradient
in chunks of ``CHUNK`` elements, so a step costs a few dozen numpy calls at
desk size, and each chunk's working set stays in cache at paper size. The
operations and their order are those of a per-tensor update, and every one
is elementwise, so the result is the same bit for bit. A step of two or
more chunks is cut into two halves by chunk count: ``tensor.beside`` runs
the first on its worker thread while the caller runs the second, each half
with its own two scratch rows, so the halves share no temporary and every
element still sees the same operations.

The moment decay rates and the denominator's epsilon are the stock values
of Kingma and Ba (2015), ``BETA1``, ``BETA2`` and ``EPS``; only the learning
rate is set per optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import Tensor, beside

CHUNK = 1 << 16
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment estimation with the canonical bias correction.

    Keeps first/second moment buffers and a step counter; ``step`` applies
    the in-place update ``p -= lr * m_hat / (sqrt(v_hat) + EPS)`` to every
    parameter whose ``grad`` is set. Parameters with no gradient are left
    untouched (their moments do not decay either).
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        if not 0.0 < lr < math.inf:
            raise ContractError(f"learning rate must be positive and finite, got {lr}")
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ContractError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.lr = lr
        self.t = 0
        total = sum(p.data.size for p in params.values())
        self._data = np.empty(total, dtype)
        self._grad = np.empty(total, dtype)   # a slot is written before it is read
        self._m = np.zeros(total, dtype)
        self._v = np.zeros(total, dtype)
        # (name, tensor, start, stop, data slot, grad slot) in buffer order
        self._slots = []
        start = 0
        for name, p in params.items():
            stop = start + p.data.size
            data, grad = (flat[start:stop].reshape(p.data.shape)
                          for flat in (self._data, self._grad))
            data[...] = p.data
            p.data = data
            self._slots.append((name, p, start, stop, data, grad))
            start = stop
        # two chunk-sized scratch rows for each half of a step, so a step
        # allocates no temporaries
        self._scratch = np.empty((2, 2, min(CHUNK, total)), dtype)

    def step(self) -> None:
        runs: list[list[int]] = []
        for name, p, start, stop, data, grad in self._slots:
            if p.data is not data:
                raise ContractError(f"parameter {name!r}: data was rebound off its "
                                    "optimizer slot")
            if p.grad is None:
                continue
            if p.grad is not grad:
                raise ContractError(f"parameter {name!r}: grad is not its optimizer slot "
                                    "(accumulate it after zero_grad, do not assign it)")
            if runs and runs[-1][1] == start:
                runs[-1][1] = stop
            else:
                runs.append([start, stop])
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        parts = [slice(lo, min(lo + CHUNK, stop))
                 for start, stop in runs for lo in range(start, stop, CHUNK)]
        half = len(parts) // 2   # the worker's share; none of a single chunk
        done = beside(self._update, parts[:half], self._scratch[1], bias1, bias2) \
            if half else None
        self._update(parts[half:], self._scratch[0], bias1, bias2)
        if done is not None:
            done()

    def _update(self, parts, scratch: np.ndarray, bias1: float, bias2: float) -> None:
        """p -= lr * (m / bias1) / (sqrt(v / bias2) + EPS) over each chunk of
        ``parts``, in the same operations and order as a per-tensor update,
        with the two rows of ``scratch`` as temporaries."""
        for part in parts:
            g, m, v = self._grad[part], self._m[part], self._v[part]
            step, denom = scratch[:, :part.stop - part.start]
            np.multiply(g, 1.0 - BETA1, out=step)
            m *= BETA1
            m += step
            np.multiply(g, g, out=step)
            step *= 1.0 - BETA2
            v *= BETA2
            v += step
            np.divide(m, bias1, out=step)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            step *= self.lr
            step /= denom
            self._data[part] -= step

    def zero_grad(self) -> None:
        """Unset every gradient and hand each parameter its slot, as it is:
        no pass over the buffer."""
        for _, p, _, _, _, grad in self._slots:
            p.grad, p.grad_slot = None, grad
