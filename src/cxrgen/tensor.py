"""Dense tensors with tape-based reverse-mode automatic differentiation.

This is the numeric substrate for the report-generation model: n-dimensional
float arrays plus exactly the differentiable operations the network needs
(matmul, biased dense layers with an optional ReLU, layer norm with or
without a residual sum, multi-head attention, embeddings with their
position rows, row repetition, add, a cross-entropy averaged over the rows
of a mask, dropout). Values are stored as row-major 32-bit floats by
default; a 64-bit mode exists for numerical verification
(finite-difference gradient checks are meaningless in single precision).

The operations take rank-2 ``[rows x width]`` tensors; ``matmul`` takes
exactly two, as no layer needs a stack of products. A layer the model runs
many times is one fused op with a hand-written backward rule rather than a
chain of small ops: ``linear`` is a product plus its bias,
and its ReLU when asked; ``add_layer_norm`` is a residual sum and the layer
norm after it, sharing ``layer_norm``'s forward and backward rule;
``embedding`` gathers rows and adds each position's row, and scatters its
gradient through one flat index; and ``multi_head_attention`` takes the
query, key and value rows of B padded sequences, splits every head as a
strided view of them, and runs the scaled scores, the mask, the softmax and
the weighted values of all heads, then merges the heads back into rows, as
one tape entry. Each backward rule runs the same arithmetic, in the same
order, as the chain of separate ops it replaced (kept in the test suite as
the reference), so the fused ops are bit-identical to it. The forward
arithmetic of these four ops is written once, as private functions on plain
arrays (``_dense``, ``_normalize``, ``_embed`` and ``_attend``) that the ops
call and that the model's array path calls to generate without a tape.

Forward operations append ``(inputs, output, vjp)`` tuples to a
module-level list, the tape, whenever an input requires a gradient, and
only then; there is no switch that turns recording off. Validation runs the
ops over tensors that need no gradient, so it records nothing.
An array that only the backward pass reads is built inside the backward
rule. ``backward(loss)`` replays the tape in strict reverse recording order and
accumulates ``grad`` buffers only on leaves, the tensors that no tape entry
produced (parameters and inputs); intermediate adjoints are dropped as soon
as their entry has been replayed. A parameter adopted by ``optim.Adam``
gets its gradient in its slot of the optimizer's flat gradient buffer
(``Tensor.grad_slot``), which is handed out unzeroed: the backward rule
that produces a parameter's gradient (the weight product of ``linear`` and
``matmul``, the bias, gain and layer-norm bias sums, the embedding scatter)
writes it straight into the slot with ``out=``, a later contribution to the
same parameter is summed into it, and a gradient that no rule wrote there
is copied in at the end; an unwritten slot is never read. Other leaves get
a fresh array. Repeated backward calls accumulate until the gradient is
cleared, matching the usual autograd convention: by ``Adam.zero_grad`` for
a parameter it adopted (a gradient assigned to or cleared from such a
parameter by hand leaves its slot, and ``Adam.step`` refuses it), by
``grad = None`` for any other leaf.

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

    ``data`` is a C-contiguous (row-major flat storage) numpy array.
    ``grad`` is set by the backward pass and always matches ``data`` in
    shape. The shape is fixed at construction; treat tensors as immutable
    except for the optimizer's in-place parameter update.

    A parameter adopted by ``optim.Adam`` has its ``data`` and its gradient
    in slots of the optimizer's flat buffers: ``Adam.zero_grad`` hands each
    parameter its gradient slot, unzeroed, as ``grad_slot``. The first
    backward rule or ``accumulate_grad`` to produce the gradient takes the
    slot as ``grad`` and writes all of it, so a slot is used once per
    ``zero_grad``. Any other leaf gets a fresh array.
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
        """Add ``contribution`` to ``grad``; an unset ``grad`` becomes a copy
        of it, in the ``grad_slot`` if one was handed out, else in a fresh
        array."""
        if self.grad is None:
            if _slot(self) is None:
                self.grad = np.empty_like(self.data)
            np.copyto(self.grad, contribution)
        else:
            self.grad += contribution

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


# The tape: one ``(inputs, output, vjp)`` tuple per recorded operation, in
# execution order, which is a topological order by construction. ``vjp`` maps
# the output adjoint to one adjoint (or None) per input.
_tape: list = []


def active_graph() -> list:
    return _tape


def reset_graph() -> None:
    _tape.clear()


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad leaf.

    The tape is replayed strictly in reverse, so a tensor's adjoint is
    complete when the entry that produced it is replayed; it is dropped right
    there. What is left at the end belongs to tensors no entry produced:
    leaves. ``Tensor`` defines no ``__eq__``, so the adjoints are keyed by
    identity.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to the recorded graph")
    adjoints = {loss: np.ones_like(loss.data)}
    for inputs, output, vjp in reversed(_tape):
        out_adjoint = adjoints.pop(output, None)
        if out_adjoint is None:
            continue
        for tensor, contribution in zip(inputs, vjp(out_adjoint)):
            if contribution is None:
                continue
            # contributions may alias each other (add passes g to both
            # inputs), so sum out of place, or into the slot a rule wrote
            prev = adjoints.get(tensor)
            if prev is None:
                adjoints[tensor] = contribution
            elif tensor.grad is contribution:
                contribution += prev
                adjoints[tensor] = contribution
            elif tensor.grad is prev:
                prev += contribution
            else:
                adjoints[tensor] = prev + contribution
    for tensor, adjoint in adjoints.items():
        if tensor.requires_grad and adjoint is not tensor.grad:
            tensor.accumulate_grad(adjoint)


def _slot(t: Tensor):
    """Hand out ``t``'s gradient slot, at most once per ``Adam.zero_grad``:
    it becomes ``t.grad`` unwritten, and the caller writes ``t``'s whole
    contribution into it. None when ``t`` has no unused slot."""
    if t.grad is not None or t.grad_slot is None:
        return None
    t.grad, t.grad_slot = t.grad_slot, None
    return t.grad


def _record(inputs, output: Tensor, vjp) -> Tensor:
    if any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _tape.append((tuple(inputs), output, vjp))
    return output


# ---------------------------------------------------------------------------
# Forward arithmetic on plain arrays, shared by the ops below and by the
# model's array path, which generates without a tape
# ---------------------------------------------------------------------------

def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """``x @ w + b``, then a ReLU when ``relu`` is set, in a fresh array."""
    out = x @ w
    np.add(out, b, out=out)
    if relu:
        np.maximum(out, 0, out=out)
    return out


def _normalize(total: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of each row of ``total``: the output, and the normalized
    rows and 1 / standard deviation that the backward rule reads."""
    centered = total - _row_mean(total)
    var = _row_mean(centered * centered)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normalized = centered * inv_std
    return normalized * gain + bias, normalized, inv_std


def _embed(table: np.ndarray, ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """[B*L x width] rows of ``table`` for the [B x L] ``ids``, plus each
    position's row of the [L x width] ``positions``."""
    n_seq, length = ids.shape
    out = table[ids.reshape(-1)]
    rows = out.reshape(n_seq, length, table.shape[1])   # a view of out
    rows += positions
    return out


def _split_heads(rows: np.ndarray, n_seq: int, length: int, n_heads: int) -> np.ndarray:
    """[B*L x d] or [B x L x d] rows -> a [B x H x L x d_head] view."""
    return rows.reshape(n_seq, length, n_heads, rows.shape[-1] // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(stack: np.ndarray, shape) -> np.ndarray:
    """[B x H x L x d_head] -> rows in the layout of ``shape``."""
    return stack.transpose(0, 2, 1, 3).reshape(shape)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, mask):
    """The arithmetic of ``multi_head_attention`` on the [B*Lq x d] query
    rows and the [B x Lk x d] key and value rows (a view is read in place),
    under the boolean [B x Lq x Lk] ``mask``, or with every key allowed when
    ``mask`` is None. Returns the [B*Lq x d] attended rows, then the softmax
    weights and the head views that the backward rule reads."""
    n_seq, n_key = k.shape[:2]
    n_query = q.shape[0] // n_seq
    q_heads = _split_heads(q, n_seq, n_query, n_heads)
    v_heads = _split_heads(v, n_seq, n_key, n_heads)
    # the keys' transpose is laid out contiguously, as the composed chain's
    # permute made it: BLAS rounds a transposed operand differently
    k_t = np.ascontiguousarray(_split_heads(k, n_seq, n_key, n_heads).swapaxes(-1, -2))
    # the temporaries are computed in place, with the composed chain's arithmetic
    scores = q_heads @ k_t
    scores *= 1.0 / math.sqrt(q.shape[-1] // n_heads)   # a weak scalar: q's dtype
    if mask is not None:
        np.copyto(scores, -np.inf, where=~mask[:, None])
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return _merge_heads(weights @ v_heads, q.shape), weights, q_heads, k_t, v_heads


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a_data, b_data = a.data, b.data
    if a_data.ndim != 2 or b_data.ndim != 2 or a_data.shape[1] != b_data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a_data.shape} x {b_data.shape}")
    out = Tensor._wrap(a_data @ b_data)
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            g @ b_data.T if need_a else None,
            np.matmul(a_data.T, g, out=_slot(b)) if need_b else None,
        )

    return _record((a, b), out, vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {tuple(a.shape)} + {tuple(b.shape)}")
    out = Tensor._wrap(a.data + b.data)
    return _record((a, b), out, lambda g: (g, g))


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """A biased dense layer ``x @ w + b`` over the rows of a rank-2 ``x``,
    followed by a ReLU when ``relu`` is set."""
    x_data, w_data = x.data, w.data
    if x_data.ndim != 2 or w_data.ndim != 2 or x_data.shape[1] != w_data.shape[0] \
            or b.data.shape != w_data.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x_data.shape} x {w_data.shape} "
                         f"+ {b.data.shape}")
    out_data = _dense(x_data, w_data, b.data, relu)
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def vjp(g):
        if relu:
            g = g * (out_data > 0)   # where the pre-activation is positive
        return (
            g @ w_data.T if need_x else None,
            np.matmul(x_data.T, g, out=_slot(w)) if need_w else None,
            np.add.reduce(g, axis=0, out=_slot(b)) if need_b else None,
        )

    return _record((x, w, b), Tensor._wrap(out_data), vjp)


def repeat_rows(x: Tensor, times: int) -> Tensor:
    """Each row of a rank-2 ``x`` repeated ``times`` times, copies adjacent:
    [B x d] -> [B*times x d], row b to rows b*times .. b*times + times - 1."""
    if x.ndim != 2:
        raise ShapeError(f"repeat_rows expects a rank-2 input, got shape {tuple(x.shape)}")
    rows, width = x.shape
    out = Tensor._wrap(x.data.repeat(times, axis=0))
    return _record((x,), out, lambda g: (g.reshape(rows, times, width).sum(axis=1),))


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)`` for a rank-2 ``a``, bit for bit: the
    same sum divided by the same count, without ndarray.mean's Python
    wrapper, which costs more than the arithmetic on the model's short rows.
    The division runs in ``a``'s dtype where ndarray.mean divides in float64
    and rounds back; a float32 quotient rounded twice through float64 is the
    correctly rounded one, so the results are the same."""
    total = np.add.reduce(a, axis=1, keepdims=True)
    return np.divide(total, a.shape[1], out=total)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of ``x`` to zero mean / unit variance, then apply gain and bias."""
    return _layer_norm((x,), x.data, gain, bias)


def add_layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``layer_norm(add(x, residual), gain, bias)`` as one op: a post-LN
    residual connection. Both summands receive the normalization's input
    gradient."""
    if x.shape != residual.shape:
        raise ShapeError(f"add_layer_norm: incompatible shapes {tuple(x.shape)} "
                         f"+ {tuple(residual.shape)}")
    return _layer_norm((x, residual), x.data + residual.data, gain, bias)


def _layer_norm(summands, total: np.ndarray, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm of ``total``, the sum of the ``summands`` tensors' data;
    each summand gets the same input gradient."""
    if total.ndim != 2:
        raise ShapeError(f"layer_norm expects a rank-2 input, got shape {total.shape}")
    n = total.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain {tuple(gain.shape)} / bias {tuple(bias.shape)} "
            f"do not match normalized width {n}"
        )
    out_data, normalized, inv_std = _normalize(total, gain.data, bias.data)
    gain_data = gain.data
    need_x = any(t.requires_grad for t in summands)
    need_gain, need_bias = gain.requires_grad, bias.requires_grad

    def vjp(g):
        gx = None
        if need_x:   # inv_std * (gn - mean(gn) - normalized * mean(gn * normalized)), in gn
            gx = g * gain_data
            proj = gx * normalized
            np.multiply(normalized, _row_mean(proj), out=proj)
            gx -= _row_mean(gx)
            gx -= proj
            gx *= inv_std
        ggain = np.add.reduce(g * normalized, axis=0, out=_slot(gain)) if need_gain else None
        gbias = np.add.reduce(g, axis=0, out=_slot(bias)) if need_bias else None
        return (*(gx for _ in summands), ggain, gbias)

    return _record((*summands, gain, bias), Tensor._wrap(out_data), vjp)


def embedding(table: Tensor, ids, positions: np.ndarray) -> Tensor:
    """Rows of ``table`` gathered by the [B x L] integer ``ids``, plus the
    [L x width] ``positions`` row of each id's position: the [B*L x width]
    rows, row b*L + t for position t of sequence b."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeError(f"embedding ids must be [B x L], got shape {tuple(ids.shape)}")
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be rank 2, got shape {tuple(table.shape)}")
    n_seq, length = ids.shape
    width = table.shape[1]
    if positions.shape != (length, width):
        raise ShapeError(f"embedding positions must be [{length} x {width}], "
                         f"got shape {positions.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError(
            f"embedding id out of range [0, {table.shape[0]}): {int(ids.min())}..{int(ids.max())}"
        )
    table_data = table.data
    out_data = _embed(table_data, ids, positions)
    ids = ids.reshape(-1)

    def vjp(g):
        # one flat scatter: element j of row i adds into element
        # ids[i] * width + j, in the order a row-wise np.add.at adds them
        gt = _slot(table)
        if gt is None:
            gt = np.empty_like(table_data)
        gt.fill(0)
        np.add.at(gt.reshape(-1), (ids[:, None] * width + np.arange(width)).reshape(-1),
                  g.reshape(-1))
        return (gt,)   # the slot itself, not a view of it

    return _record((table,), Tensor._wrap(out_data), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identical inputs, rate, and rng state give identical masks."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = np.greater_equal(rng.random(x.shape), rate, out=np.empty_like(x.data))
    factor = 1.0 / (1.0 - rate)
    out = x.data * keep
    out *= np.asarray(factor, dtype=x.data.dtype)

    def vjp(g):   # g * keep * factor; g may be another input's adjoint too
        gx = g * keep
        gx *= factor
        return (gx,)

    return _record((x,), Tensor._wrap(out), vjp)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask) -> Tensor:
    """Scaled dot-product attention of every head of every sequence, one op:
    per head, softmax(q k^T / sqrt(d_head)) v, heads merged back into rows.

    ``mask`` is a boolean [B x Lq x Lk], True where attention is allowed,
    shared by all heads. ``q`` holds the [B*Lq x d] query rows, row
    b*Lq + i for query i of sequence b; ``k`` and ``v`` hold the [B*Lk x d]
    key and value rows. Head h is column block h of width
    d_head = d / n_heads; the heads are split and merged as strided views.
    Returns the [B*Lq x d] attended rows. A query row with no allowed key
    has no defined attention distribution, so that is rejected rather than
    silently producing NaN.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ShapeError(f"attention mask must be [B x Lq x Lk], got shape {mask.shape}")
    n_seq, n_query, n_key = mask.shape
    width = q.shape[-1]
    if width % n_heads or q.shape != (n_seq * n_query, width) \
            or k.shape != (n_seq * n_key, width) or v.shape != k.shape:
        raise ShapeError(f"attention: incompatible q {q.shape}, k {k.shape}, v {v.shape} "
                         f"for {n_heads} heads under a {mask.shape} mask")
    allowed = mask.any(axis=-1)
    if not allowed.all():
        seq, row = np.unravel_index(int(np.argmin(allowed)), allowed.shape)
        raise ContractError(
            f"attention query row {row} of sequence {seq} has every key masked out")
    out_data, weights, q_heads, k_t, v_heads = _attend(
        q.data, k.data.reshape(n_seq, n_key, width), v.data.reshape(n_seq, n_key, width),
        n_heads, mask)
    factor = 1.0 / math.sqrt(width // n_heads)
    mask = mask[:, None]
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

    def vjp(g):   # the composed chain's rules in its reverse order
        g = _split_heads(g, n_seq, n_query, n_heads)
        gv = _merge_heads(weights.swapaxes(-1, -2) @ g, v.shape) if need_v else None
        gw = g @ v_heads.swapaxes(-1, -2)
        gs = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True))
        gs = gs * mask * factor
        gq = _merge_heads(gs @ k_t.swapaxes(-1, -2), q.shape) if need_q else None
        gk = _merge_heads((q_heads.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), k.shape) \
            if need_k else None
        return (gq, gk, gv)

    return _record((q, k, v), Tensor._wrap(out_data), vjp)


def sparse_cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Cross-entropy of integer ``targets`` against per-row ``logits``,
    averaged over the rows where the boolean ``mask`` is True; the other
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

    # the mean is the sum times 1 / count, both in the logits' dtype
    log_probs = logits.data - logits.data.max(axis=1, keepdims=True)   # shifted, then in place
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(n_rows), targets]
    factor = logits.data.dtype.type(1.0 / np.count_nonzero(mask))
    mean = np.asarray(-(picked * mask).sum() * factor)

    def vjp(g):
        gl = np.exp(log_probs)
        gl[np.arange(n_rows), targets] -= 1.0
        gl *= mask[:, None]
        gl *= g.reshape(()) * factor
        return (gl,)

    return _record((logits,), Tensor._wrap(mean), vjp)


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
