"""Dense tensors with tape-based reverse-mode automatic differentiation.

This is the numeric substrate for the report-generation model: n-dimensional
float arrays plus exactly the differentiable operations the network needs
(matmul, softmax, layer norm, scaled dot-product attention, embeddings,
cross-entropy, dropout). Values are stored as row-major 32-bit floats by
default; a 64-bit mode exists for numerical verification (finite-difference
gradient checks are meaningless in single precision).

Most operations take rank-2 ``[rows x width]`` tensors. ``matmul``,
``apply_attention_mask`` and ``scaled_dot_attention`` also take stacks
``[... x rows x width]`` of any rank with equal leading dimensions (softmax,
``permute`` and the elementwise ops take any rank), and ``reshape`` and
``permute`` move between layouts, so attention over every head of a padded
batch runs as one op per step rather than one per example and head.

Forward operations append entries to a module-level ComputationGraph (a
tape). ``backward(loss)`` replays the tape in strict reverse recording order
and accumulates ``grad`` buffers only on leaves, the tensors that no tape
entry produced (parameters and inputs); intermediate adjoints are dropped as
soon as their entry has been replayed. A parameter adopted by
``optim.Adam`` accumulates into its slot of the optimizer's flat gradient
buffer (``Tensor.grad_slot``); other leaves get a fresh array. Repeated
backward calls accumulate until the gradient is cleared (``Adam.zero_grad``,
or ``grad = None``), matching the usual autograd convention.

The recorder is single-threaded: one training session owns the tape. All
reductions delegate to numpy, whose summation order is fixed for a given
shape, so repeated runs on the same platform are bit-identical.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

_VALID_DTYPES = (np.float32, np.float64)
LAYER_NORM_EPS = 1e-5   # added to each row's variance before the square root
_default_dtype = np.float32


@contextmanager
def default_dtype(dtype):
    """Temporarily construct tensors as ``dtype``, float32 or float64 (used by
    verification tests)."""
    global _default_dtype
    dtype = np.dtype(dtype).type
    if dtype not in _VALID_DTYPES:
        raise ContractError(f"unsupported dtype {dtype}; use float32 or float64")
    previous, _default_dtype = _default_dtype, dtype
    try:
        yield
    finally:
        _default_dtype = previous


class Tensor:
    """A dense array with an optional gradient buffer.

    ``data`` is a C-contiguous numpy array (row-major flat storage).
    ``grad`` is set by the backward pass and always matches ``data`` in
    shape. The shape is fixed at construction; treat tensors as immutable
    except for the optimizer's in-place parameter update.

    A parameter adopted by ``optim.Adam`` has its ``data`` and its gradient
    in slots of the optimizer's flat buffers: ``Adam.zero_grad`` zeroes the
    gradient buffer and hands each parameter its slot as ``grad_slot``,
    which the next ``accumulate_grad`` takes as ``grad`` instead of
    allocating. Any other leaf gets a fresh ``zeros_like`` gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=_default_dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.grad_slot = None

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor":
        """Wrap an op result without re-casting dtype."""
        out = cls.__new__(cls)
        out.data = np.ascontiguousarray(array)
        out.requires_grad = False
        out.grad = None
        out.grad_slot = None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, contribution: np.ndarray) -> None:
        """Add ``contribution`` to ``grad``, starting from zeros: the
        pre-zeroed ``grad_slot`` if one was handed out (it is used once),
        else a fresh array."""
        if self.grad is None:
            self.grad, self.grad_slot = self.grad_slot, None
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
        self.grad += contribution

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class _Entry:
    """One recorded operation: operand refs, output ref, and a backward rule.

    ``vjp`` maps the output adjoint to one adjoint (or None) per input.
    """

    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs, output, vjp):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class ComputationGraph:
    """An append-only tape of recorded operations.

    Recording order is execution order, which is a topological order by
    construction; the backward pass visits entries strictly in reverse.
    """

    def __init__(self):
        self._entries: list[_Entry] = []
        self._enabled = True

    def __len__(self):
        return len(self._entries)

    def reset(self) -> None:
        self._entries.clear()

    @property
    def enabled(self) -> bool:
        return self._enabled

    def record(self, inputs, output, vjp) -> None:
        self._entries.append(_Entry(inputs, output, vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad leaf.

        Recording order is topological, so a tensor's adjoint is complete when
        the entry that produced it is replayed; it is dropped right there.
        What is left at the end belongs to tensors no entry produced: leaves.
        """
        if loss.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise ContractError("loss is not connected to the recorded graph")
        adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        tensors: dict[int, Tensor] = {id(loss): loss}
        for entry in reversed(self._entries):
            out_adjoint = adjoints.pop(id(entry.output), None)
            if out_adjoint is None:
                continue
            for tensor, contribution in zip(entry.inputs, entry.vjp(out_adjoint)):
                if contribution is None:
                    continue
                # contributions may alias each other (add passes g to both
                # inputs), so sum out of place and never write into one
                key = id(tensor)
                if key in adjoints:
                    adjoints[key] = adjoints[key] + contribution
                else:
                    adjoints[key] = contribution
                    tensors[key] = tensor
        for key, adjoint in adjoints.items():
            tensor = tensors[key]
            if tensor.requires_grad:
                tensor.accumulate_grad(adjoint)


_graph = ComputationGraph()


def active_graph() -> ComputationGraph:
    return _graph


def reset_graph() -> None:
    _graph.reset()


def backward(loss: Tensor) -> None:
    _graph.backward(loss)


@contextmanager
def no_grad():
    """Disable recording (evaluation / generation mode)."""
    previous = _graph._enabled
    _graph._enabled = False
    try:
        yield
    finally:
        _graph._enabled = previous


def _record(inputs, output: Tensor, vjp) -> Tensor:
    if _graph._enabled and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _graph.record(tuple(inputs), output, vjp)
    return output


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors, or a stack of products of two
    tensors of equal rank and equal leading dimensions."""
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a_data.shape, b_data.shape
    if not 2 <= len(a_shape) == len(b_shape) or a_shape[:-2] != b_shape[:-2] \
            or a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a_shape} x {b_shape}")
    out = Tensor._wrap(a_data @ b_data)
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            g @ b_data.swapaxes(-1, -2) if need_a else None,
            a_data.swapaxes(-1, -2) @ g if need_b else None,
        )

    return _record((a, b), out, vjp)


def permute(a: Tensor, axes) -> Tensor:
    """Reorder the axes: output axis i is input axis ``axes[i]``."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of the axes of {tuple(a.shape)}")
    out = Tensor._wrap(a.data.transpose(axes))
    return _record((a,), out, lambda g: (g.transpose(np.argsort(axes)),))


def reshape(a: Tensor, shape) -> Tensor:
    """The same elements in row-major order under a new shape."""
    in_shape = a.data.shape
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {in_shape} as {tuple(shape)}")
    out = Tensor._wrap(a.data.reshape(shape))
    return _record((a,), out, lambda g: (g.reshape(in_shape),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over the rows of a 2-D input."""
    a_shape, b_shape = a.data.shape, b.data.shape
    bias_rows = len(a_shape) == 2 and b_shape == a_shape[1:]
    if not bias_rows and a_shape != b_shape:
        raise ShapeError(f"add: incompatible shapes {a_shape} + {b_shape}")
    out = Tensor._wrap(a.data + b.data)

    def vjp(g):
        gb = g.sum(axis=0) if bias_rows else g
        return (g, gb)

    return _record((a, b), out, vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {tuple(a.shape)} * {tuple(b.shape)}")
    out = Tensor._wrap(a.data * b.data)
    a_data, b_data = a.data, b.data
    return _record((a, b), out, lambda g: (g * b_data, g * a_data))


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = Tensor._wrap(a.data * np.asarray(factor, dtype=a.data.dtype))
    return _record((a,), out, lambda g: (g * factor,))


def relu(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(a.data, 0))
    positive = a.data > 0
    return _record((a,), out, lambda g: (g * positive,))


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor._wrap(np.asarray(a.data.sum(), dtype=a.data.dtype))
    shape_like = a.data
    return _record((a,), out, lambda g: (np.full_like(shape_like, g.reshape(())),))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, stabilized by max-subtraction."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {tuple(x.shape)}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)
    out = Tensor._wrap(out_data)

    def vjp(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _record((x,), out, vjp)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)`` for a rank-2 ``a``, bit for bit: the
    same sum divided by the same intp count, without ndarray.mean's Python
    wrapper, which costs more than the arithmetic on the model's short rows."""
    total = np.add.reduce(a, axis=1, keepdims=True)
    return np.true_divide(total, np.intp(a.shape[1]), out=total, casting="unsafe")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of ``x`` to zero mean / unit variance, then apply gain and bias."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a rank-2 input, got shape {tuple(x.shape)}")
    n = x.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain {tuple(gain.shape)} / bias {tuple(bias.shape)} "
            f"do not match normalized width {n}"
        )
    centered = x.data - _row_mean(x.data)
    var = _row_mean(centered * centered)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normalized = centered * inv_std
    out = Tensor._wrap(normalized * gain.data + bias.data)
    gain_data = gain.data
    need_x, need_gain, need_bias = x.requires_grad, gain.requires_grad, bias.requires_grad

    def vjp(g):
        gx = None
        if need_x:
            gn = g * gain_data
            gx = inv_std * (
                gn
                - _row_mean(gn)
                - normalized * _row_mean(gn * normalized)
            )
        ggain = (g * normalized).sum(axis=0) if need_gain else None
        gbias = g.sum(axis=0) if need_bias else None
        return (gx, ggain, gbias)

    return _record((x, gain, bias), out, vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer id."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding ids must be a flat sequence, got shape {tuple(ids.shape)}")
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be rank 2, got shape {tuple(table.shape)}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError(
            f"embedding id out of range [0, {table.shape[0]}): {int(ids.min())}..{int(ids.max())}"
        )
    out = Tensor._wrap(table.data[ids])
    table_data = table.data

    def vjp(g):
        gt = np.zeros_like(table_data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record((table,), out, vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identical inputs, rate, and rng state give identical masks."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    factor = 1.0 / (1.0 - rate)
    out = Tensor._wrap(x.data * keep * np.asarray(factor, dtype=x.data.dtype))
    return _record((x,), out, lambda g: (g * keep * factor,))


def apply_attention_mask(scores: Tensor, mask) -> Tensor:
    """Set masked-out score entries to -inf ahead of the softmax.

    ``mask`` is a boolean array of the scores' shape ([Lq x Lk], or
    [... x Lq x Lk] for a stack), True where attention is allowed. A query
    row with no allowed key has no defined attention distribution, so that
    is rejected rather than silently producing NaN.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise ShapeError(
            f"attention mask shape {tuple(mask.shape)} does not match scores {tuple(scores.shape)}"
        )
    unmasked_per_row = mask.any(axis=-1)
    if not unmasked_per_row.all():
        row = np.unravel_index(int(np.argmin(unmasked_per_row)), unmasked_per_row.shape)
        where = ", ".join(str(int(i)) for i in row)
        raise ContractError(f"attention query row {where} has every key masked out")
    out = Tensor._wrap(np.where(mask, scores.data, -np.inf))
    return _record((scores,), out, lambda g: (g * mask,))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask=None) -> Tensor:
    """Scaled dot-product attention: softmax(q k^T / sqrt(d)) v.

    Shapes: q [Lq x d], k [Lk x d], v [Lk x dv]; mask, when given, is a
    boolean [Lq x Lk] with True marking attendable keys. A stack of
    independent attentions puts the same leading dimensions ahead of each,
    e.g. q [B x H x Lq x d], k [B x H x Lk x d], v [B x H x Lk x dv] and a
    [B x H x Lq x Lk] mask.
    """
    q_shape, k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    # checked up front so that a mismatch records nothing on the tape
    if not (2 <= len(q_shape) == len(k_shape) == len(v_shape)
            and q_shape[:-2] == k_shape[:-2] == v_shape[:-2]
            and q_shape[-1] == k_shape[-1] and k_shape[-2] == v_shape[-2]):
        raise ShapeError(f"attention: incompatible q {q_shape}, k {k_shape}, v {v_shape}")
    swap_last = (*range(len(k_shape) - 2), len(k_shape) - 1, len(k_shape) - 2)
    scores = scale(matmul(q, permute(k, swap_last)), 1.0 / math.sqrt(q_shape[-1]))
    if mask is not None:
        scores = apply_attention_mask(scores, mask)
    weights = softmax(scores, axis=-1)
    return matmul(weights, v)


def sparse_cross_entropy(logits: Tensor, targets, mask=None, reduction: str = "mean") -> Tensor:
    """Cross-entropy of integer ``targets`` against per-row ``logits``.

    Rows where ``mask`` is False contribute exactly zero to the value and to
    the gradient. ``reduction`` is "mean" (over selected rows) or "sum".
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross entropy expects [T x V] logits, got {tuple(logits.shape)}")
    targets = np.asarray(targets, dtype=np.int64)
    n_rows, n_classes = logits.shape
    if targets.shape != (n_rows,):
        raise ShapeError(f"targets shape {tuple(targets.shape)} does not match {n_rows} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ContractError(f"target id out of range [0, {n_classes})")
    if mask is None:
        mask = np.ones(n_rows, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n_rows,):
            raise ShapeError(f"mask shape {tuple(mask.shape)} does not match {n_rows} rows")
    count = int(mask.sum())
    if count == 0:
        raise ContractError("cross entropy over zero selected rows")
    if reduction not in ("mean", "sum"):
        raise ContractError(f"unknown reduction {reduction!r}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(n_rows)
    picked = log_probs[rows, targets]
    total = -(picked * mask).sum()
    denom = count if reduction == "mean" else 1
    out = Tensor._wrap(np.asarray(total / denom, dtype=logits.data.dtype))

    probs = np.exp(log_probs)

    def vjp(g):
        gl = probs.copy()
        gl[rows, targets] -= 1.0
        gl *= (mask / denom)[:, None]
        return (gl * g.reshape(()),)

    return _record((logits,), out, vjp)


def sinusoidal_positions(length: int, width: int, dtype=None) -> np.ndarray:
    """Fixed sine/cosine positional encoding table of shape [length x width]."""
    dtype = dtype or _default_dtype
    positions = np.arange(length, dtype=np.float64)[:, None]
    dims = np.arange(width, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, (2.0 * (dims // 2)) / width)
    table = np.zeros((length, width), dtype=np.float64)
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table.astype(dtype)
