"""Adam optimizer over a named map of parameter tensors.

The optimizer owns the storage of what it updates: parameters, gradients
and both moments each live in one flat buffer of the parameters' dtype, laid
out in the order of the parameter map. ``Adam(params)`` copies each
parameter into its slot and rebinds ``p.data`` to a view of it, one tensor
at a time; ``opt.m[name]`` and ``opt.v[name]`` are views as well.
``zero_grad`` zeroes the gradient buffer with one fill and hands each
parameter its gradient slot (``Tensor.grad_slot``), which backward then
accumulates into instead of allocating.

``step`` updates each maximal run of adjacent tensors that have a gradient
in chunks of ``CHUNK`` elements, so a step costs a few dozen numpy calls at
desk size, and each chunk's working set stays in cache at paper size. The
operations and their order are those of a per-tensor update, and every one
is elementwise, so the result is the same bit for bit.

The moment decay rates and the denominator's epsilon are the stock values
of Kingma and Ba (2015), ``BETA1``, ``BETA2`` and ``EPS``; only the learning
rate is set per optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import Tensor

CHUNK = 1 << 16
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment estimation with the canonical bias correction.

    Keeps first/second moment buffers and a step counter; ``step`` applies
    the in-place update ``p -= lr * m_hat / (sqrt(v_hat) + EPS)`` to every
    parameter whose ``grad`` is set. Parameters with no gradient are left
    untouched (their moments do not decay either).

    A ``p.grad``, ``p.data`` or moment that a caller rebound to another array
    is copied into its slot at the next ``step`` and rebound to the slot, so
    the update reaches the tensor the caller holds either way.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4):
        if not 0.0 < lr < math.inf:
            raise ContractError(f"learning rate must be positive and finite, got {lr}")
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ContractError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.params = params
        self.lr = lr
        self.t = 0
        total = sum(p.data.size for p in params.values())
        self._data = np.empty(total, dtype)
        self._grad = np.zeros(total, dtype)
        self._m = np.zeros(total, dtype)
        self._v = np.zeros(total, dtype)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # (name, tensor, start, stop, data, grad, m, v slots) in buffer order
        self._slots = []
        start = 0
        for name, p in params.items():
            stop = start + p.data.size
            data, grad, m, v = (flat[start:stop].reshape(p.data.shape)
                                for flat in (self._data, self._grad, self._m, self._v))
            data[...] = p.data
            p.data = data
            self.m[name], self.v[name] = m, v
            self._slots.append((name, p, start, stop, data, grad, m, v))
            start = stop
        # two chunk-sized scratch rows, so a step allocates no temporaries
        self._scratch = np.empty((2, min(CHUNK, total)), dtype)

    def _reclaim(self, name, p, data, grad, m, v) -> None:
        """Copy into its slot any array a caller rebound, and rebind it there."""
        for moments, slot in ((self.m, m), (self.v, v)):
            if moments[name] is not slot:
                if moments[name].shape != slot.shape:
                    raise ContractError(
                        f"moment buffer for {name!r} has shape {moments[name].shape}, "
                        f"parameter has {slot.shape}"
                    )
                slot[...] = moments[name]
                moments[name] = slot
        if p.data is not data:
            if p.data.shape != data.shape:
                raise ContractError(
                    f"parameter {name!r} was rebound to shape {p.data.shape}, "
                    f"its slot has {data.shape}"
                )
            data[...] = p.data
            p.data = data
        if p.grad is not grad:
            grad[...] = p.grad
            p.grad, p.grad_slot = grad, None

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        runs: list[list[int]] = []
        for name, p, start, stop, data, grad, m, v in self._slots:
            if p.grad is None:
                continue
            if not (p.grad is grad and p.data is data
                    and self.m[name] is m and self.v[name] is v):
                self._reclaim(name, p, data, grad, m, v)
            if runs and runs[-1][1] == start:
                runs[-1][1] = stop
            else:
                runs.append([start, stop])
        for start, stop in runs:
            for lo in range(start, stop, CHUNK):
                self._update(slice(lo, min(lo + CHUNK, stop)), bias1, bias2)

    def _update(self, part: slice, bias1: float, bias2: float) -> None:
        """p -= lr * (m / bias1) / (sqrt(v / bias2) + EPS) over one chunk, in
        the same operations and order as a per-tensor update."""
        g, m, v = self._grad[part], self._m[part], self._v[part]
        step, denom = self._scratch[:, :part.stop - part.start]
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
        self._grad.fill(0)
        for _, p, _, _, _, grad, _, _ in self._slots:
            p.grad, p.grad_slot = None, grad
