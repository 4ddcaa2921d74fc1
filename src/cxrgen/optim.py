"""Adam optimizer over a named map of parameter tensors."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


class Adam:
    """Adaptive-moment estimation with the canonical bias correction.

    Keeps first/second moment buffers and a step counter; ``step`` applies
    the in-place update ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` to every
    parameter whose ``grad`` is set. Parameters with no gradient are left
    untouched (their moments do not decay either).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ContractError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        # two scratch rows the size of the largest parameter, one pair per
        # dtype, so a step allocates no parameter-sized temporaries
        self._largest = max((p.data.size for p in params.values()), default=0)
        self._scratch: dict[np.dtype, np.ndarray] = {}

    def _buffers(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = self._scratch.get(like.dtype)
        if rows is None:
            rows = self._scratch[like.dtype] = np.empty((2, self._largest), like.dtype)
        return (rows[0, :like.size].reshape(like.shape),
                rows[1, :like.size].reshape(like.shape))

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            if m.shape != p.data.shape:
                raise ContractError(
                    f"moment buffer for {name!r} has shape {m.shape}, "
                    f"parameter has {p.data.shape}"
                )
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps), evaluated in
            # the same operations and order, into the scratch buffers
            step, denom = self._buffers(p.data)
            np.multiply(g, 1.0 - self.beta1, out=step)
            m *= self.beta1
            m += step
            np.multiply(g, g, out=step)
            step *= 1.0 - self.beta2
            v *= self.beta2
            v += step
            np.divide(m, bias1, out=step)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step *= self.lr
            step /= denom
            p.data -= step

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
