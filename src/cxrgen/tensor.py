"""Dense tensors with tape-based reverse-mode automatic differentiation.

This is the numeric substrate for the report-generation model: n-dimensional
float arrays plus exactly the differentiable operations the network needs
(matmul, biased dense layers, layer norm, multi-head attention, embeddings,
row repetition, a cross-entropy summed over a row mask, dropout). Values
are stored as row-major 32-bit floats by default; a 64-bit mode exists for
numerical verification (finite-difference gradient checks are meaningless
in single precision).

Most operations take rank-2 ``[rows x width]`` tensors; ``matmul`` also
takes stacks ``[... x rows x width]`` of equal leading dimensions. A layer
the model runs many times is one fused op with a hand-written backward rule
rather than a chain of small ops: ``linear`` is a product plus its bias, and
``multi_head_attention`` takes the query, key and value rows of B padded
sequences, splits every head as a strided view of them, and runs the scaled
scores, the mask, the softmax and the weighted values of all heads, then
merges the heads back into rows, as one tape entry. Its backward rule runs
the same arithmetic, in the same order, as the chain of separate ops it
replaced (kept in the test suite as the reference).

Forward operations append entries to a module-level ComputationGraph (a
tape). ``backward(loss)`` replays the tape in strict reverse recording order
and accumulates ``grad`` buffers only on leaves, the tensors that no tape
entry produced (parameters and inputs); intermediate adjoints are dropped as
soon as their entry has been replayed. A parameter adopted by
``optim.Adam`` accumulates into its slot of the optimizer's flat gradient
buffer (``Tensor.grad_slot``); other leaves get a fresh array. Repeated
backward calls accumulate until the gradient is cleared, matching the usual
autograd convention: by ``Adam.zero_grad`` for a parameter it adopted (a
gradient assigned to or cleared from such a parameter by hand leaves its
slot, and ``Adam.step`` refuses it), by ``grad = None`` for any other leaf.

The recorder is single-threaded: one training session owns the tape. All
reductions delegate to numpy, whose summation order is fixed for a given
shape, so repeated runs on the same platform are bit-identical.
"""

from __future__ import annotations

import functools
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

    ``data`` is a numpy array, C-contiguous (row-major flat storage) except
    for the views of its key/value buffers that ``model.DecodeCache`` wraps.
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
        """Wrap an op result as it is: no dtype cast, no copy."""
        out = cls.__new__(cls)
        out.data = array
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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {tuple(a.shape)} + {tuple(b.shape)}")
    out = Tensor._wrap(a.data + b.data)
    return _record((a, b), out, lambda g: (g, g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """A biased dense layer ``x @ w + b`` over the rows of a rank-2 ``x``."""
    x_data, w_data = x.data, w.data
    if x_data.ndim != 2 or w_data.ndim != 2 or x_data.shape[1] != w_data.shape[0] \
            or b.data.shape != w_data.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x_data.shape} x {w_data.shape} "
                         f"+ {b.data.shape}")
    out_data = x_data @ w_data
    out = Tensor._wrap(np.add(out_data, b.data, out=out_data))
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def vjp(g):
        return (
            g @ w_data.T if need_x else None,
            x_data.T @ g if need_w else None,
            g.sum(axis=0) if need_b else None,
        )

    return _record((x, w, b), out, vjp)


def repeat_rows(x: Tensor, times: int) -> Tensor:
    """Each row of a rank-2 ``x`` repeated ``times`` times, copies adjacent:
    [B x d] -> [B*times x d], row b to rows b*times .. b*times + times - 1."""
    if x.ndim != 2:
        raise ShapeError(f"repeat_rows expects a rank-2 input, got shape {tuple(x.shape)}")
    rows, width = x.shape
    out = Tensor._wrap(x.data.repeat(times, axis=0))
    return _record((x,), out, lambda g: (g.reshape(rows, times, width).sum(axis=1),))


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = Tensor._wrap(a.data * np.asarray(factor, dtype=a.data.dtype))
    return _record((a,), out, lambda g: (g * factor,))


def relu(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(a.data, 0))
    positive = a.data > 0
    return _record((a,), out, lambda g: (g * positive,))


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


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask) -> Tensor:
    """Scaled dot-product attention of every head of every sequence, one op:
    per head, softmax(q k^T / sqrt(d_head)) v, heads merged back into rows.

    ``mask`` is a boolean [B x Lq x Lk], True where attention is allowed,
    shared by all heads. ``q`` holds the [B*Lq x d] query rows, row
    b*Lq + i for query i of sequence b; ``k`` and ``v`` hold the keys' and
    values' rows, [B*Lk x d] or [B x Lk x d] (a view is read in place).
    Head h is column block h of width d_head = d / n_heads; the heads are
    split and merged as strided views. Returns the [B*Lq x d] attended rows.
    A query row with no allowed key has no defined attention distribution,
    so that is rejected rather than silently producing NaN.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ShapeError(f"attention mask must be [B x Lq x Lk], got shape {mask.shape}")
    n_seq, n_query, n_key = mask.shape
    width = q.shape[-1]
    key_shapes = ((n_seq * n_key, width), (n_seq, n_key, width))
    if width % n_heads or q.shape != (n_seq * n_query, width) \
            or k.shape not in key_shapes or v.shape not in key_shapes:
        raise ShapeError(f"attention: incompatible q {q.shape}, k {k.shape}, v {v.shape} "
                         f"for {n_heads} heads under a {mask.shape} mask")
    allowed = mask.any(axis=-1)
    if not allowed.all():
        seq, row = np.unravel_index(int(np.argmin(allowed)), allowed.shape)
        raise ContractError(
            f"attention query row {row} of sequence {seq} has every key masked out")
    d_head = width // n_heads
    factor = 1.0 / math.sqrt(d_head)

    def heads(rows, length):   # [B*L x d] or [B x L x d] -> [B x H x L x d_head] view
        return rows.reshape(n_seq, length, n_heads, d_head).transpose(0, 2, 1, 3)

    def rows_of(stack, shape):  # [B x H x L x d_head] -> rows in the layout of ``shape``
        return stack.transpose(0, 2, 1, 3).reshape(shape)

    q_heads, v_heads = heads(q.data, n_query), heads(v.data, n_key)
    # the keys' transpose is laid out contiguously, as the composed chain's
    # permute made it: BLAS rounds a transposed operand differently
    k_t = np.ascontiguousarray(heads(k.data, n_key).swapaxes(-1, -2))
    mask = mask[:, None]
    scores = (q_heads @ k_t) * np.asarray(factor, dtype=q.data.dtype)
    scores = np.where(mask, scores, -np.inf)
    exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = exps / exps.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(rows_of(weights @ v_heads, q.shape))
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

    def vjp(g):   # the composed chain's rules in its reverse order
        g = heads(g, n_query)
        gv = rows_of(weights.swapaxes(-1, -2) @ g, v.shape) if need_v else None
        gw = g @ v_heads.swapaxes(-1, -2)
        gs = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True))
        gs = gs * mask * factor
        gq = rows_of(gs @ k_t.swapaxes(-1, -2), q.shape) if need_q else None
        gk = rows_of((q_heads.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), k.shape) \
            if need_k else None
        return (gq, gk, gv)

    return _record((q, k, v), out, vjp)


def sparse_cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Summed cross-entropy of integer ``targets`` against per-row
    ``logits`` over the rows where the boolean ``mask`` is True; the other
    rows contribute exactly zero to the value and to the gradient."""
    if logits.ndim != 2:
        raise ShapeError(f"cross entropy expects [T x V] logits, got {tuple(logits.shape)}")
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n_rows, n_classes = logits.shape
    if targets.shape != (n_rows,):
        raise ShapeError(f"targets shape {tuple(targets.shape)} does not match {n_rows} rows")
    if mask.shape != (n_rows,):
        raise ShapeError(f"mask shape {tuple(mask.shape)} does not match {n_rows} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ContractError(f"target id out of range [0, {n_classes})")
    if not mask.any():
        raise ContractError("cross entropy over zero selected rows")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(n_rows)
    picked = log_probs[rows, targets]
    out = Tensor._wrap(np.asarray(-(picked * mask).sum(), dtype=logits.data.dtype))

    probs = np.exp(log_probs)

    def vjp(g):
        gl = probs.copy()
        gl[rows, targets] -= 1.0
        gl *= mask[:, None]
        return (gl * g.reshape(()),)

    return _record((logits,), out, vjp)


def sinusoidal_positions(length: int, width: int, dtype=None) -> np.ndarray:
    """Fixed sine/cosine positional encoding table of shape [length x width].

    The table is built once per (length, width, dtype) and shared, so it is
    read-only.
    """
    return _positions(length, width, np.dtype(dtype or _default_dtype))


@functools.cache
def _positions(length: int, width: int, dtype: np.dtype) -> np.ndarray:
    positions = np.arange(length, dtype=np.float64)[:, None]
    dims = np.arange(width, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, (2.0 * (dims // 2)) / width)
    table = np.zeros((length, width), dtype=np.float64)
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    table = table.astype(dtype)
    table.flags.writeable = False
    return table
