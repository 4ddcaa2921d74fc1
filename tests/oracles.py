"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way (explicit
loops, textbook formulas, exact fractions, closed-form sums) and shares
no code with the package under test. The exceptions are
``per_example_batch_loss``, which checks the batched training loss and the
pooled validation loss against the package's own model called one sequence
at a time, and ``full_prefix_generate``, which decodes by re-running the
package's decoder on the whole prefix at every step on ``detached``
parameters, so it records nothing.
``PerTensorAdam`` and ``padded_teacher_forcing_batch`` keep the per-tensor
optimizer and the per-example batch assembly that the flat-buffer and
whole-array versions replaced. ``per_head_init`` and ``per_head_attention``
keep the initialisation and the attention layer of one tensor per head and
role that the joined matrices replaced; they take the parameter names from
the package's ``parameter_shapes``, and ``per_head_forward`` writes out the
model's forward from the package's tensor ops around
``per_head_attention``.
``counter_bleu`` and ``per_pair_embedding_f1`` keep the per-pair metrics
that the batched ones replaced; ``per_pair_embedding_f1`` looks tokens up
one at a time with ``lookup``. ``permute``, ``reshape``, ``add`` (with its
bias broadcast), ``scale``, ``softmax``, ``apply_attention_mask`` and
``scaled_dot_attention``, ``relu`` and ``gather_rows`` (the embedding
gather with its row-wise gradient scatter) are the tensor ops that the
fused ones replaced, recorded on the package's tape, and
``stacked_matmul`` is ``tensor.matmul`` with the stacked operands it no
longer takes; ``composed_multi_head_attention``, ``composed_linear``,
``owner_repeat_rows``, ``composed_add_layer_norm``,
``composed_linear_relu`` and ``composed_embedding`` chain them (and the
package's ``matmul``, ``add``, ``linear`` and ``layer_norm``)
into the reference for ``tensor.multi_head_attention``, ``tensor.linear``,
``tensor.repeat_rows``, ``tensor.add_layer_norm``, the ReLU of
``tensor.linear`` and the positions of ``tensor.embedding``.
``summed_cross_entropy`` is ``tensor.sparse_cross_entropy`` as it was
before it took the mean, and ``two_op_batch_loss`` runs the package's
model and chains it and ``scale`` into the reference for
``training.batch_loss``. ``mul`` and
``sum_all`` are tensor ops that only tests use, to reduce an op's output
to a scalar loss.

Some entry points left the package because no command uses them:
``lookup`` reads one token's vector from a ``metrics.EmbeddingTable``,
``stub_feature_extractor`` stands in for a convolutional backbone,
``legacy_checkpoint`` reads the per-head checkpoint formats 1 and 2, which
``checkpoint.load_checkpoint`` rejects, and ``encode_demographics`` encodes
one record with all three fields, checking the layout on every call.

``all_rules_apply`` and ``validating_clean_report`` keep the report
cleaning that the indexed standardization map and the single-pass
``text.clean_report`` replaced: every rule tried at every position, and
every token of the result re-checked character by character
(``generator_bad_token``) after cleaning. ``per_record_build_datapoints``
keeps ``data.build_datapoints`` as it was before it cleaned each distinct
text once: it calls the package's ``text.clean_report`` for every record.
``mixed_cleaning_records`` is the input it is compared on, with repeated
kept and rejected texts.
"""

import json
import math
import string
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np


def loop_matmul(a, b):
    """Triple-nested-loop matrix product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def direct_softmax(row):
    """exp / normalize, computed straight from the definition."""
    row = [float(x) for x in row]
    exps = [math.exp(x) for x in row]
    total = sum(exps)
    return [e / total for e in exps]


def direct_layer_norm(row, gain, bias, eps=1e-5):
    """Mean/variance normalization from the definition (population variance)."""
    row = [float(x) for x in row]
    n = len(row)
    mean = sum(row) / n
    var = sum((x - mean) ** 2 for x in row) / n
    return [
        (x - mean) / math.sqrt(var + eps) * g + b
        for x, g, b in zip(row, gain, bias)
    ]


def loop_attention(q, k, v, mask=None):
    """Hand-looped scaled dot-product attention: logits -> softmax -> weighted sum."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lq, d = q.shape
    lk = k.shape[0]
    out = np.zeros((lq, v.shape[1]))
    for i in range(lq):
        logits = []
        for j in range(lk):
            if mask is not None and not mask[i][j]:
                logits.append(-math.inf)
            else:
                logits.append(sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d))
        top = max(logits)
        weights = [math.exp(x - top) for x in logits]
        total = sum(weights)
        weights = [w / total for w in weights]
        for j in range(lk):
            for t in range(v.shape[1]):
                out[i, t] += weights[j] * v[j, t]
    return out


def head_block(matrix, role, h, n_heads):
    """Head h's block of a joined attention matrix: a column block of
    wq/wk/wv, a row block of wo."""
    width = matrix.shape[0] // n_heads if role == "wo" else matrix.shape[1] // n_heads
    rows = slice(h * width, (h + 1) * width)
    return matrix[rows] if role == "wo" else matrix[:, rows]


def full_softmax_mha(weights, prefix, n_heads, query, keyvalue, mask=None):
    """Multi-head attention computed in full for every head h: query/key/value
    projections, scaled scores, optional boolean mask, softmax over the keys,
    weighted values, output projection; heads summed, then the output bias.

    ``weights`` maps ``<prefix>.{wq,wk,wv,wo}`` (one [d x d] matrix per role,
    head h's projections in column block h, its output rows in row block h)
    and ``<prefix>.bo`` to arrays.
    """
    out = 0.0
    for h in range(n_heads):
        q, k, v = (source @ head_block(weights[f"{prefix}.{role}"], role, h, n_heads)
                   for source, role in ((query, "wq"), (keyvalue, "wk"), (keyvalue, "wv")))
        scores = (q @ k.T) / math.sqrt(q.shape[1])
        if mask is not None:
            scores = np.where(mask, scores, -np.inf)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        out = out + probs @ v @ head_block(weights[f"{prefix}.wo"], "wo", h, n_heads)
    return out + weights[f"{prefix}.bo"]


ROLES = ("wq", "wk", "wv", "wo")


def per_head_shapes(cfg):
    """Parameter names and shapes with one [d x d_head] (wo: [d_head x d])
    tensor per head and role, stored head by head, in the model's order."""
    from cxrgen.model import parameter_shapes

    shapes = parameter_shapes(cfg)
    out = {}
    for name, shape in shapes.items():
        prefix, _, role = name.rpartition(".")
        if role not in ROLES:
            out[name] = shape
        elif role == "wo":
            for h in range(cfg.n_heads):
                for r in ROLES:
                    if f"{prefix}.{r}" in shapes:
                        out[f"{prefix}.h{h}.{r}"] = ((cfg.d_head, cfg.d_model) if r == "wo"
                                                     else (cfg.d_model, cfg.d_head))
    return out


def per_head_init(cfg, seed=0):
    """``model.init_parameters`` as it was: one Glorot-uniform draw per tensor
    of ``per_head_shapes``, in order, unit gains and zero biases; float32."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in per_head_shapes(cfg).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith((".bias", ".b", ".bo")):
            data = np.zeros(shape)
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-limit, limit, size=shape)
        out[name] = data.astype(np.float32)
    return out


def split_heads(params, cfg):
    """Per-head leaf tensors (copies) of every joined attention matrix in
    ``params``, named ``<prefix>.h<h>.<role>``."""
    from cxrgen.tensor import Tensor

    out = {}
    for name, tensor in params.items():
        prefix, _, role = name.rpartition(".")
        if role in ROLES:
            for h in range(cfg.n_heads):
                block = head_block(tensor.data, role, h, cfg.n_heads).copy()
                out[f"{prefix}.h{h}.{role}"] = Tensor(block, requires_grad=True)
    return out


def per_head_attention(heads, params, prefix, cfg, keyvalue, mask=None):
    """Multi-head attention as it was before the heads were joined: a loop
    over heads, each with its own projections from the per-head tensors
    ``heads``, attended with the composed ``scaled_dot_attention``, their
    output projections summed. Without a mask, each ``keyvalue`` row is the
    one key of its own attention; with a [B x L x L] mask, the rows are B
    sequences of L positions attending per sequence."""
    from cxrgen import tensor as T

    out = None
    for h in range(cfg.n_heads):
        attended = T.matmul(keyvalue, heads[f"{prefix}.h{h}.wv"])
        if mask is not None:
            shape = (*mask.shape[:2], cfg.d_head)   # [B x L x d_head]
            q = reshape(T.matmul(keyvalue, heads[f"{prefix}.h{h}.wq"]), shape)
            k = reshape(T.matmul(keyvalue, heads[f"{prefix}.h{h}.wk"]), shape)
            v = reshape(attended, shape)
            attended = scaled_dot_attention(q, k, v, mask)
            attended = reshape(attended, (keyvalue.shape[0], cfg.d_head))
        projected = T.matmul(attended, heads[f"{prefix}.h{h}.wo"])
        out = projected if out is None else add(out, projected)
    return add(out, params[f"{prefix}.bo"])


def per_head_forward(ids, features, demo, params, heads, cfg):
    """The model's forward on the tape, written out layer by layer with
    ``per_head_attention`` over the per-head tensors ``heads``: the [B x L]
    ``ids``' [B*L x V] logits for the [B x F] ``features`` and [B x D]
    ``demo`` rows."""
    from cxrgen import tensor as T
    from cxrgen.text import PAD_ID

    def attention(prefix, keyvalue, mask=None):
        return per_head_attention(heads, params, prefix, cfg, keyvalue, mask)

    def norm(prefix, x, residual):
        return T.add_layer_norm(x, residual, params[f"{prefix}.gain"], params[f"{prefix}.bias"])

    x = T.layer_norm(T.Tensor(features), params["visual.feat_norm.gain"],
                     params["visual.feat_norm.bias"])
    h = T.linear(x, params["visual.ff.w"], params["visual.ff.b"], relu=True)
    hybrid = norm("visual.norm", h, attention("visual.attn", h))
    semantic = T.linear(T.Tensor(demo), params["semantic.fc.w"], params["semantic.fc.b"])
    hybrid = norm("fusion.norm", hybrid, attention("fusion.attn", semantic))
    n_seq, length = ids.shape
    x = T.embedding(params["embed.table"], ids, T.sinusoidal_positions(length, cfg.d_embed))
    mask = np.tril(np.ones((length, length), dtype=bool)) & (ids != PAD_ID)[:, None, :]
    for i in range(cfg.n_decoder_blocks):
        x = norm(f"dec{i}.norm1", x, attention(f"dec{i}.self_attn", x, mask))
        cross = T.repeat_rows(attention(f"dec{i}.cross_attn", hybrid), length)
        x = norm(f"dec{i}.norm2", x, cross)
        x = T.add(x, T.linear(x, params[f"dec{i}.ff.w"], params[f"dec{i}.ff.b"], relu=True))
    return T.linear(x, params["classifier.w"], params["classifier.b"])


# -- the composed attention chain and the ops the fused ones replaced -------

def _op(inputs, out_data, vjp):
    """Record ``out_data`` as one tape entry of the package's tensor core."""
    from cxrgen import tensor as T

    return T._record(inputs, T.Tensor._wrap(np.ascontiguousarray(out_data)), vjp)


def permute(a, axes):
    """Reorder the axes: output axis i is input axis ``axes[i]``."""
    from cxrgen.errors import ShapeError

    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of the axes of {tuple(a.shape)}")
    return _op((a,), a.data.transpose(axes), lambda g: (g.transpose(np.argsort(axes)),))


def reshape(a, shape):
    """The same elements in row-major order under a new shape."""
    from cxrgen.errors import ShapeError

    in_shape = a.data.shape
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {in_shape} as {tuple(shape)}")
    return _op((a,), a.data.reshape(shape), lambda g: (g.reshape(in_shape),))


def stacked_matmul(a, b):
    """``tensor.matmul`` as it was before it took rank-2 operands only: a
    matrix product of two rank-2 tensors, or a stack of products of two
    tensors of equal rank and equal leading dimensions."""
    from cxrgen.errors import ShapeError

    a_data, b_data = a.data, b.data
    a_shape, b_shape = a_data.shape, b_data.shape
    if not 2 <= len(a_shape) == len(b_shape) or a_shape[:-2] != b_shape[:-2] \
            or a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a_shape} x {b_shape}")
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            g @ b_data.swapaxes(-1, -2) if need_a else None,
            a_data.swapaxes(-1, -2) @ g if need_b else None,
        )

    return _op((a, b), a_data @ b_data, vjp)


def add(a, b):
    """Elementwise sum; also accepts a 1-D bias broadcast over the rows of a 2-D input."""
    from cxrgen.errors import ShapeError

    a_shape, b_shape = a.data.shape, b.data.shape
    bias_rows = len(a_shape) == 2 and b_shape == a_shape[1:]
    if not bias_rows and a_shape != b_shape:
        raise ShapeError(f"add: incompatible shapes {a_shape} + {b_shape}")
    return _op((a, b), a.data + b.data, lambda g: (g, g.sum(axis=0) if bias_rows else g))


def scale(a, factor):
    """``a`` times the scalar ``factor``, rounded to ``a``'s dtype."""
    from cxrgen import tensor as T

    factor = float(factor)
    out = T.Tensor._wrap(a.data * np.asarray(factor, dtype=a.data.dtype))
    return T._record((a,), out, lambda g: (g * factor,))


def softmax(x, axis=-1):
    """Softmax along ``axis``, stabilized by max-subtraction."""
    from cxrgen.errors import ShapeError

    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {tuple(x.shape)}")
    exps = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _op((x,), out_data, vjp)


def apply_attention_mask(scores, mask):
    """Set masked-out score entries to -inf ahead of the softmax; ``mask`` is
    a boolean array of the scores' shape, True where attention is allowed. A
    query row with no allowed key is a ``ContractError``."""
    from cxrgen.errors import ContractError, ShapeError

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
    return _op((scores,), np.where(mask, scores.data, -np.inf), lambda g: (g * mask,))


def scaled_dot_attention(q, k, v, mask=None):
    """softmax(q k^T / sqrt(d)) v as a chain of separate tape entries.

    Shapes: q [Lq x d], k [Lk x d], v [Lk x dv] and a boolean [Lq x Lk]
    mask, or stacks of them with the same leading dimensions.
    """
    from cxrgen.errors import ShapeError

    q_shape, k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    if not (2 <= len(q_shape) == len(k_shape) == len(v_shape)
            and q_shape[:-2] == k_shape[:-2] == v_shape[:-2]
            and q_shape[-1] == k_shape[-1] and k_shape[-2] == v_shape[-2]):
        raise ShapeError(f"attention: incompatible q {q_shape}, k {k_shape}, v {v_shape}")
    swap_last = (*range(len(k_shape) - 2), len(k_shape) - 1, len(k_shape) - 2)
    scores = scale(stacked_matmul(q, permute(k, swap_last)), 1.0 / math.sqrt(q_shape[-1]))
    if mask is not None:
        scores = apply_attention_mask(scores, mask)
    return stacked_matmul(softmax(scores, axis=-1), v)


def composed_multi_head_attention(q, k, v, n_heads, mask):
    """``tensor.multi_head_attention`` as the chain it replaced: split the
    heads of the [B*L x d] rows with reshape and permute, repeat the
    [B x Lq x Lk] mask over the heads, attend, merge the heads back."""
    n_seq, n_query, n_key = np.shape(mask)
    d_head = q.shape[-1] // n_heads

    def heads(rows, length):
        return permute(reshape(rows, (n_seq, length, n_heads, d_head)), (0, 2, 1, 3))

    attended = scaled_dot_attention(heads(q, n_query), heads(k, n_key), heads(v, n_key),
                                    np.asarray(mask)[:, None].repeat(n_heads, axis=1))
    return reshape(permute(attended, (0, 2, 1, 3)), (n_seq * n_query, q.shape[-1]))


def composed_linear(x, w, b):
    """``tensor.linear`` as the product and the bias add it replaced."""
    from cxrgen import tensor as T

    return add(T.matmul(x, w), b)


def owner_repeat_rows(x, times):
    """``tensor.repeat_rows`` as the one-hot owner product it replaced."""
    from cxrgen import tensor as T

    return T.matmul(T.Tensor(np.eye(x.shape[0]).repeat(times, axis=0)), x)


def relu(a):
    """max(a, 0), passing the gradient where ``a`` is positive."""
    positive = a.data > 0
    return _op((a,), np.maximum(a.data, 0), lambda g: (g * positive,))


def gather_rows(table, ids):
    """Rows of ``table`` by the flat integer ``ids``; the gradient scatters
    back with a row-wise ``np.add.at``."""
    ids = np.asarray(ids, dtype=np.int64)
    table_data = table.data

    def vjp(g):
        gt = np.zeros_like(table_data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _op((table,), table_data[ids], vjp)


def composed_add_layer_norm(x, residual, gain, bias):
    """``tensor.add_layer_norm`` as the sum and the layer norm it replaced."""
    from cxrgen import tensor as T

    return T.layer_norm(T.add(x, residual), gain, bias)


def composed_linear_relu(x, w, b):
    """``tensor.linear(..., relu=True)`` as the dense layer and the ReLU it replaced."""
    from cxrgen import tensor as T

    return relu(T.linear(x, w, b))


def composed_embedding(table, ids, positions):
    """``tensor.embedding`` as the row gather and the add of each sequence's
    position rows (tiled over the [B x L] ``ids``) it replaced."""
    from cxrgen import tensor as T

    ids = np.asarray(ids)
    rows = gather_rows(table, ids.reshape(-1))
    return T.add(rows, T.Tensor(np.tile(positions, (ids.shape[0], 1))))


def mul(a, b):
    """Elementwise (Hadamard) product of same-shape tensors."""
    from cxrgen import tensor as T
    from cxrgen.errors import ShapeError

    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {tuple(a.shape)} * {tuple(b.shape)}")
    a_data, b_data = a.data, b.data
    return T._record((a, b), T.Tensor._wrap(a_data * b_data), lambda g: (g * b_data, g * a_data))


def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    from cxrgen import tensor as T

    out = T.Tensor._wrap(np.asarray(a.data.sum(), dtype=a.data.dtype))
    shape_like = a.data
    return T._record((a,), out, lambda g: (np.full_like(shape_like, g.reshape(())),))


def finite_difference_gradients(loss_fn, params, step=1e-3):
    """Central finite differences of a scalar function of named parameter tensors.

    ``loss_fn`` takes no arguments and reads the current parameter data;
    parameters are perturbed in place and restored.
    """
    grads = {}
    for name, tensor in params.items():
        flat = tensor.data.reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn()
            flat[i] = original - step
            down = loss_fn()
            flat[i] = original
            grad[i] = (up - down) / (2.0 * step)
        grads[name] = grad.reshape(tensor.data.shape)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    """max |a - n| / max(|a|, |n|, floor) over all elements."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def adam_reference(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam recurrence unrolled step by step from the update equations."""
    x = float(x0)
    m = 0.0
    v = 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(x)
    return trace


def allocating_adam_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update in the textbook formula, every term a fresh array.

    Updates ``param``, ``m`` and ``v`` in place; ``t`` counts from 1.
    """
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    param -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(param.dtype)


class PerTensorAdam:
    """``optim.Adam`` as it was before the flat buffers: per-tensor moment
    arrays and one pass of in-place operations per parameter, skipping any
    parameter whose ``grad`` is None."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            step = np.empty_like(p.data)
            denom = np.empty_like(p.data)
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

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def adam_moments(optimizer):
    """``(m, v)``: each parameter's first and second moment by name, read
    from the flat buffers of an ``optim.Adam`` through its slots, or the
    dicts of a ``PerTensorAdam``."""
    if isinstance(optimizer, PerTensorAdam):
        return optimizer.m, optimizer.v
    return tuple({name: flat[start:stop].reshape(p.data.shape)
                  for name, p, start, stop, _, _ in optimizer._slots}
                 for flat in (optimizer._m, optimizer._v))


def padded_teacher_forcing_batch(rows, pad_id=0):
    """Batch assembly as it was: each row's teacher-forcing views taken one
    at a time, then each part ``np.pad``-ed to the longest and stacked.
    Returns (inputs, targets, mask); a row with fewer than two non-pad ids
    raises ``ContractError``."""
    from cxrgen.errors import ContractError

    views = []
    for row in rows:
        ids = np.asarray(row, dtype=np.int64)
        nonpad = np.nonzero(ids != pad_id)[0]
        if nonpad.size < 2:
            raise ContractError("encoded report is too short to train on")
        last = int(nonpad[-1])
        targets = ids[1:last + 1]
        views.append((ids[:last], targets, targets != pad_id))
    length = max(inputs.shape[0] for inputs, _, _ in views)

    def padded(part, fill):
        return np.stack([np.pad(view[part], (0, length - view[part].shape[0]),
                                constant_values=fill) for view in views])

    return padded(0, pad_id), padded(1, pad_id), padded(2, False)


def summed_cross_entropy(logits, targets, mask):
    """``tensor.sparse_cross_entropy`` as it was before it took the mean:
    the cross-entropy summed over the rows where ``mask`` is True, with
    the package's forward arithmetic."""
    from cxrgen import tensor as T

    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    log_probs = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    rows = np.arange(logits.shape[0])
    total = np.asarray(-(log_probs[rows, targets] * mask).sum(), dtype=logits.data.dtype)

    def vjp(g):
        gl = np.exp(log_probs)
        gl[rows, targets] -= 1.0
        gl *= mask[:, None]
        gl *= g.reshape(())
        return (gl,)

    return T._record((logits,), T.Tensor._wrap(total), vjp)


def two_op_batch_loss(batch, params, cfg, rng=None):
    """``training.batch_loss`` as the two tape entries it replaced: the
    summed cross-entropy, then ``scale`` by 1 / the pooled token count."""
    from cxrgen.model import decoder_forward, encode_inputs
    from cxrgen.training import teacher_forcing_batch

    inputs, targets, mask = teacher_forcing_batch([ex.ids for ex in batch])
    demos = [ex.demo for ex in batch]
    hybrid = encode_inputs([ex.features for ex in batch],
                           None if any(d is None for d in demos) else demos, params, cfg, rng=rng)
    logits = decoder_forward(inputs, hybrid, params, cfg, rng=rng)
    count = int(mask.sum())
    total = summed_cross_entropy(logits, targets.reshape(-1), mask.reshape(-1))
    return scale(total, 1.0 / count), count


def per_example_batch_loss(batch, params, cfg, rng=None):
    """The pooled batch loss with the package's model called one example at
    a time: encode, decode the unpadded teacher-forcing view, sum the
    cross-entropy of each example, then divide by the pooled token count.
    Returns (loss tensor, count), like ``training.batch_loss``.
    """
    from cxrgen import tensor as T
    from cxrgen.model import decoder_forward, encode_inputs
    from cxrgen.training import teacher_forcing_batch

    total = None
    count = 0
    for ex in batch:
        hybrid = encode_inputs(ex.features, ex.demo, params, cfg, rng=rng)
        inputs, targets, mask = (part[0] for part in teacher_forcing_batch([ex.ids]))
        logits = decoder_forward(inputs, hybrid, params, cfg, rng=rng)
        part = summed_cross_entropy(logits, targets, mask)
        total = part if total is None else T.add(total, part)
        count += int(mask.sum())
    return scale(total, 1.0 / count), count


def full_prefix_generate(features, demo, params, cfg, temperature=0.5, seed=0):
    """``model.generate`` as it was before the decode cache: every step runs
    ``decoder_forward`` on the whole prefix and reads the last row."""
    from cxrgen import tensor as T
    from cxrgen.errors import ContractError
    from cxrgen.model import decoder_forward, encode_inputs
    from cxrgen.text import END_ID, START_ID

    if not 0.0 <= temperature < math.inf:
        raise ContractError(f"temperature must be finite and non-negative, got {temperature}")
    rng = np.random.default_rng(seed)
    out = []
    params = detached(params)
    hybrid = encode_inputs(features, demo, params, cfg)
    while len(out) < cfg.max_len:
        prefix = np.asarray([START_ID] + out, dtype=np.int64)
        logits = decoder_forward(prefix, hybrid, params, cfg)
        last = logits.data[-1]
        if temperature < np.finfo(last.dtype).tiny:   # 0, or it underflows to 0
            next_id = int(np.argmax(last))
        else:
            # shifted before the division, so a tiny temperature cannot
            # make inf - inf = NaN
            probs = np.exp((last - last.max()) / temperature)
            probs /= probs.sum()
            next_id = int(np.searchsorted(np.cumsum(probs), rng.random()))
            if next_id == cfg.vocab_size:   # past the rounded total
                next_id = int(np.flatnonzero(probs)[-1])
        out.append(next_id)
        if next_id == END_ID:
            break
    return out


def detached(params):
    """The parameters as tensors that share their arrays but require no
    gradient, so that a forward over them records nothing."""
    from cxrgen.tensor import Tensor

    return {name: Tensor._wrap(tensor.data) for name, tensor in params.items()}


def count_and_clip_bleu(hypotheses, references, max_n=4, epsilon=Fraction(1, 10 ** 9)):
    """Corpus BLEU from first principles with exact Fraction arithmetic.

    Counts n-grams with plain dict loops, clips per pair against the single
    reference, aggregates corpus-level, applies the uniform geometric mean
    and the brevity penalty exp(1 - r/c) when c < r, whose limit is 0 for a
    corpus of empty hypotheses (c = 0).
    """
    def grams(seq, n):
        counts = {}
        for i in range(len(seq) - n + 1):
            key = tuple(seq[i:i + n])
            counts[key] = counts.get(key, 0) + 1
        return counts

    clipped = [0] * max_n
    totals = [0] * max_n
    c_len = 0
    r_len = 0
    for hyp, ref in zip(hypotheses, references):
        c_len += len(hyp)
        r_len += len(ref)
        for n in range(1, max_n + 1):
            h_counts = grams(hyp, n)
            r_counts = grams(ref, n)
            for gram, count in h_counts.items():
                clipped[n - 1] += min(count, r_counts.get(gram, 0))
                totals[n - 1] += count
    if c_len >= r_len:
        bp = 1.0
    elif c_len == 0:
        bp = 0.0
    else:
        bp = math.exp(1.0 - r_len / c_len)
    scores = []
    for n in range(1, max_n + 1):
        log_sum = 0.0
        for order in range(n):
            numerator = clipped[order] if clipped[order] > 0 else epsilon
            denominator = totals[order] if totals[order] > 0 else 1
            log_sum += math.log(Fraction(numerator) / Fraction(denominator))
        scores.append(bp * math.exp(log_sum / n))
    return scores


def counter_bleu(corpus, max_n=4, epsilon=1e-9):
    """Corpus BLEU with one Counter of sliced tuples per order, sequence and
    pair, clipped gram by gram (float arithmetic, as the package computes it)."""
    def grams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(corpus.hypotheses, corpus.references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = grams(hyp, n)
            ref_counts = grams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    if hyp_len >= ref_len:
        brevity = 1.0
    elif hyp_len == 0:
        brevity = 0.0
    else:
        brevity = math.exp(1.0 - ref_len / hyp_len)
    log_precisions = []
    for n in range(max_n):
        numerator = matches[n] if matches[n] > 0 else epsilon
        denominator = totals[n] if totals[n] > 0 else 1
        log_precisions.append(math.log(numerator / denominator))
    scores = []
    for n in range(1, max_n + 1):
        mean_log = sum(log_precisions[:n]) / n
        scores.append(brevity * math.exp(mean_log))
    return scores


def lookup(table, token):
    """One token's vector of a ``metrics.EmbeddingTable``: its row of the
    matrix, or under the ``zero`` policy the zero vector for an unknown
    token, which raises ``ContractError`` under ``error``."""
    from cxrgen.errors import ContractError

    row = table.rows.get(token)
    if row is None:
        if table.unknown_policy == "error":
            raise ContractError(f"token {token!r} has no embedding")
        return np.zeros(table.matrix.shape[1])
    return table.matrix[row]


def per_pair_embedding_f1(corpus, table):
    """Greedy-match P/R/F1 with one similarity matrix per pair, built from
    ``lookup`` rows, their norms and a masked divide. A pair with an empty
    hypothesis adds 0 to P and to R."""
    p_sum = 0.0
    r_sum = 0.0
    for hyp, ref in zip(corpus.hypotheses, corpus.references):
        if not hyp:
            continue
        hyp_vecs = np.asarray([lookup(table, t) for t in hyp])
        ref_vecs = np.asarray([lookup(table, t) for t in ref])
        norms = np.outer(np.linalg.norm(hyp_vecs, axis=1), np.linalg.norm(ref_vecs, axis=1))
        sims = np.divide(hyp_vecs @ ref_vecs.T, norms, out=np.zeros_like(norms),
                         where=norms > 0)
        p_sum += float(sims.max(axis=1).mean())
        r_sum += float(sims.max(axis=0).mean())
    p = p_sum / len(corpus)
    r = r_sum / len(corpus)
    f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
    return p, r, f1


def greedy_match_scores(hypothesis, reference, vectors):
    """Per-pair greedy-matching P/R with explicit loops over a token->vector map."""
    def cosine(a, b):
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        if na == 0 or nb == 0:
            return 0.0
        return sum(x * y for x, y in zip(a, b)) / (na * nb)

    p_terms = []
    for h in hypothesis:
        p_terms.append(max(cosine(vectors[h], vectors[r]) for r in reference))
    r_terms = []
    for r in reference:
        r_terms.append(max(cosine(vectors[r], vectors[h]) for h in hypothesis))
    return sum(p_terms) / len(p_terms), sum(r_terms) / len(r_terms)


def t_distribution_two_sided_p(t_value, df):
    """Two-sided p = 1 - A(t|df) of Student's t for an integer ``df``, from
    the closed-form finite sums of Abramowitz & Stegun 26.7.3 (odd df) and
    26.7.4 (even df) in theta = atan(|t| / sqrt(df)). Where p is tiny, 1 - A
    cancels, so the result is good to about 1e-15 absolute there, not
    relative."""
    theta = math.atan(abs(t_value) / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    total = 0.0
    if df % 2:
        # cos + (2/3) cos^3 + (2*4)/(3*5) cos^5 + ... up to cos^(df-2)
        term = cos
        for j in range((df - 1) // 2):
            total += term
            term *= cos * cos * (2 * j + 2) / (2 * j + 3)
        a = 2.0 / math.pi * (theta + sin * total)
    else:
        # 1 + (1/2) cos^2 + (1*3)/(2*4) cos^4 + ... up to cos^(df-2)
        term = 1.0
        for j in range(df // 2):
            total += term
            term *= cos * cos * (2 * j + 1) / (2 * j + 2)
        a = sin * total
    return 1.0 - a


def paired_t_statistic(a, b):
    """Paired t statistic from the textbook formula."""
    diffs = [x - y for x, y in zip(a, b)]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    return mean / math.sqrt(var / n)


def stub_feature_extractor(descriptor, feature_dim, seed=0):
    """Deterministic stand-in for a convolutional backbone.

    Projects any numeric image descriptor through a fixed seeded random
    matrix to a ``feature_dim``-length float32 vector, so that ingestion can
    be exercised end to end without real image features.
    """
    from cxrgen.errors import ContractError

    descriptor = np.asarray(descriptor, dtype=np.float64).reshape(-1)
    if descriptor.size == 0:
        raise ContractError("descriptor must be non-empty")
    projection = np.random.default_rng(seed).normal(
        0.0, 1.0 / np.sqrt(descriptor.size), size=(descriptor.size, feature_dim)
    )
    return (descriptor @ projection).astype(np.float32)


def legacy_checkpoint(path):
    """Parameters and config of a format-1 or format-2 checkpoint, which
    stored one block per head and role, head by head (format 1 also stored
    query/key blocks for the single-key attention blocks). Each manifest
    entry is sliced from the blob, the ``<prefix>.h<h>.<role>`` blocks are
    joined per role with ``model.join_heads``, and blocks the model has no
    matrix for (format 1's single-key query/key blocks) are dropped."""
    from cxrgen.model import ModelConfig, join_heads, parameter_shapes
    from cxrgen.tensor import Tensor

    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    cfg = ModelConfig.from_dict(manifest["config"])
    blob = (path / manifest["blob"]).read_bytes()
    arrays = {entry["name"]: np.frombuffer(blob, dtype="<f4", offset=entry["offset"],
                                           count=entry["nbytes"] // 4).reshape(entry["shape"])
              for entry in manifest["tensors"]}
    params = {}
    for name in parameter_shapes(cfg):
        prefix, _, role = name.rpartition(".")
        data = arrays[name] if name in arrays else join_heads(
            role, [arrays[f"{prefix}.h{h}.{role}"] for h in range(cfg.n_heads)])
        params[name] = Tensor(data.copy(), requires_grad=True)
    return params, cfg


def encode_demographics(rec, categories, age_min=19, age_max=91):
    """[gender, min-max normalized age, ethnicity one-hot] from the
    definition, after ``demographics._check_layout`` (which raises
    ``ConfigError`` for a bad layout)."""
    from cxrgen.demographics import _check_layout

    _check_layout(categories, age_min, age_max)
    gender = 0.0 if rec.gender == "female" else 1.0
    age = (min(max(rec.age, age_min), age_max) - age_min) / (age_max - age_min)
    one_hot = [1.0 if rec.ethnicity == c else 0.0 for c in categories]
    return np.asarray([gender, age, *one_hot], dtype=np.float32)


def generator_bad_token(token):
    """Empty, or holding whitespace, an uppercase letter, a digit or ASCII
    punctuation, tested one character at a time."""
    return (
        not token
        or any(c.isspace() or c.isupper() or c.isdigit() for c in token)
        or any(c in string.punctuation for c in token)
    )


def sorted_rules(pairs):
    """``(source tokens, canonical tokens)`` of each ``source => canonical``
    pair, longest source first, ties in source order."""
    rules = [(tuple(src.split()), tuple(dst.split())) for src, dst in pairs]
    return sorted(rules, key=lambda r: (-len(r[0]), r[0]))


def all_rules_apply(rules, tokens):
    """Rewrite ``tokens`` left to right with the first of ``sorted_rules``
    whose source starts at each position."""
    tokens = list(tokens)
    out = []
    i = 0
    while i < len(tokens):
        for src, dst in rules:
            if tuple(tokens[i:i + len(src)]) == src:
                out.extend(dst)
                i += len(src)
                break
        else:
            out.append(tokens[i])
            i += 1
    return out


def validating_clean_report(report_id, text, stopwords, rules, reject_patterns=(),
                            min_raw_words=9):
    """Clean the raw text of one report with ``all_rules_apply`` and re-check
    every token; a malformed token raises ``ContractError``."""
    from cxrgen.errors import ContractError
    from cxrgen.text import CleanReport, Rejected

    if len(text.split()) < min_raw_words:
        return Rejected(report_id, "too_short",
                        f"raw report has fewer than {min_raw_words} words")
    lowered = text.lower()
    for pattern in reject_patterns:
        if pattern.search(lowered):
            return Rejected(report_id, "prior_reference",
                            f"matched rejection pattern {pattern.pattern!r}")
    for c in string.punctuation:
        lowered = lowered.replace(c, " ")
    tokens = [t for t in lowered.split() if not any(c.isdigit() for c in t)]
    tokens = [t for t in tokens if t not in stopwords]
    tokens = all_rules_apply(rules, tokens)
    if not tokens:
        return Rejected(report_id, "empty_after_cleaning", "no tokens survived cleaning")
    for token in tokens:
        if generator_bad_token(token):
            raise ContractError(f"report {report_id}: malformed token {token!r}")
    return CleanReport(report_id, ("<start>", *tokens, "<end>"))


def per_record_build_datapoints(records, stopwords, std_map, reject_patterns, min_raw_words=9):
    """``data.build_datapoints`` as it was before it cleaned each distinct
    text once: the package's ``clean_report`` called for every record."""
    from cxrgen.data import DataPoint
    from cxrgen.text import Rejected, clean_report

    points, rejects = [], []
    for record in records:
        outcome = clean_report(record.id, record.text, stopwords, std_map,
                               reject_patterns, min_raw_words=min_raw_words)
        if isinstance(outcome, Rejected):
            rejects.append(outcome)
        else:
            points.append(DataPoint(record.id, record.features, outcome, record.demographics))
    return points, rejects


def mixed_cleaning_records():
    """Ingest records whose texts repeat, interleaved: two accepted texts and
    one text for each reject reason of the shipped cleaning resources
    (``too_short``, ``prior_reference``, ``empty_after_cleaning``,
    ``malformed_token``), each record with its own id, features and
    demographics."""
    from cxrgen.data import IngestRecord
    from cxrgen.demographics import DemographicRecord

    texts = (
        "The lungs are clear bilaterally with no focal consolidation effusion or pneumothorax.",
        "Moderate cardiomegaly with tortuous aorta but without acute pulmonary process.",
        "Normal chest.",
        "No interval change in the small left pleural effusion since the prior study.",
        "12 34 56 78 90 11 22 33 44 55",
        "\U0001d400lungs remain clear without focal consolidation effusion edema today.",
    )
    order = (0, 1, 2, 0, 3, 4, 5, 1, 2, 3, 0, 4, 5, 5, 1, 0)
    return [IngestRecord(f"m{i:02d}", texts[t],
                         DemographicRecord(("female", "male")[i % 2], 30 + i, "group_a"),
                         np.full(4, float(i), dtype=np.float32))
            for i, t in enumerate(order)]
