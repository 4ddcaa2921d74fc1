"""The report-generation network.

Three parts feed a transformer decoder:

* a visual unit that normalizes an image feature vector and lifts it to the
  model width through a ReLU dense layer plus multi-head self-attention;
* a semantic unit, a single fully connected layer over the encoded
  demographic vector;
* a fusion block where the normalized image representation attends over
  the demographic embedding, yielding the hybrid representation.

The decoder embeds the target ids, injects sinusoidal positions, applies
causally masked self-attention, attends over the hybrid representation, and
classifies each position over the vocabulary. Residual connections wrap
every attention and feed-forward sublayer; layer norm follows the attention
sublayers, matching the published layer ordering. Each such residual sum
and its layer norm are one op (``tensor.add_layer_norm``), a ReLU layer is
one ``tensor.linear``, and the position rows are added inside
``tensor.embedding``.

A training forward therefore records a fixed tape: the visual unit 5
entries (feature layer norm, ReLU dense layer, value and output
projections, residual layer norm), the semantic unit 1 and the fusion block
3; the decoder 1 for the embedding, 12 per block (cross-attention value and
output projections; Q, K and V projections, attention and output
projection; two residual layer norms around the repeated cross-attention
rows; the ReLU dense layer and its residual add) and 1 for the classifier.
With the loss's cross-entropy and its scale, a one-block model records 25
entries, or 21 without demographics; dropout adds one entry per site when
its rate is positive.

Dropout runs exactly when a forward function is handed a dropout ``rng``:
the encoder, the fusion block and the decoder take no separate training
flag. ``training.batch_loss`` is the one caller that passes an rng, and
only for a training step; evaluation passes none.

Every stage takes a batch: the encoder maps B feature rows (and B demographic
rows) to B hybrid rows, and the decoder runs B id sequences padded to one
length L as a [B*L x d] stream, with self-attention scores of shape
[B x H x L x L] under causal and key-pad masks. A single sequence is the case
B = 1.

Generation runs on plain numpy arrays from the features to the ids. The
encoder runs the array arithmetic of ``encode_inputs`` (``tensor._dense``
and ``_normalize``) with the same checks, and no ``Tensor`` op. Under the
causal mask the keys and values of earlier positions never change, so
``generate`` then feeds a ``DecodeCache`` only the last chosen id. The
cache holds one preallocated [B x max_len x d] K row buffer and one V row
buffer per self-attention block, into which each step writes its rows in
place, plus the key-keep buffer and each block's cross-attention row (which
depends only on the hybrid representation), all made once, and the causal
mask, made once per ``max_len``. The new position's scores are
[B x H x 1 x (t+1)], over a view of the t cached keys and its own, and the
classifier runs on that one row. Until a pad id is decoded every one of
those keys is allowed, so the step builds no mask; from a pad on, and for a
step of several positions, it applies the causal and key-pad rule. A step
runs the same array arithmetic as the tensor ops (``tensor._dense``,
``_normalize``, ``_attend`` and ``_embed``) in the same order, but wraps no
``Tensor`` and records nothing; the encoder's rows equal ``encode_inputs``'s
bit for bit, and a step's logits match ``decoder_forward``'s on the whole
prefix to float rounding. Greedy decoding builds no random generator.
``decoder_forward`` always runs whole sequences from position 0; that is
how training and evaluation run.

Multi-head attention is ``Concat(head_1..head_H) @ wo + bo`` (Vaswani et
al. 2017, section 3.2.2), with one [d x d] matrix per role: head h's query,
key and value projections are column block h of ``wq``, ``wk`` and ``wv``,
and its output projection is row block h of ``wo``. Self-attention projects
Q, K and V once each into [B*L x d] rows and runs one
``tensor.multi_head_attention`` over every head of every sequence: the op
splits head h as column block h of those rows, a strided view, and merges
the heads back into [B*L x d] rows for one ``wo`` dense layer. The visual
unit, the fusion block and decoder cross-attention attend over one [1 x d]
key row; a softmax over one score is exactly 1, so they are the paper's
layers evaluated exactly in closed form, ``(kv @ wv) @ wo + bo``, with no
query/key weights.

Baseline (image-only) models set ``demographic_dim`` to zero, which removes
the semantic and fusion parameters entirely; the hybrid representation is
then just the visual encoding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor
from .text import END_ID, PAD_ID, START_ID

ATTENTION_ROLES = ("wq", "wk", "wv", "wo")


@dataclass(frozen=True)
class ModelConfig:
    """All architecture hyperparameters; every parameter shape derives from these."""
    feature_dim: int = 1280
    d_model: int = 512
    d_embed: int = 512
    n_heads: int = 8
    vocab_size: int = 2212
    max_len: int = 50
    demographic_dim: int = 7
    n_decoder_blocks: int = 1
    dropout_rate: float = 0.1

    def __post_init__(self):
        positive = ("feature_dim", "d_model", "d_embed", "n_heads", "vocab_size",
                    "max_len", "n_decoder_blocks")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.demographic_dim < 0:
            raise ConfigError("demographic_dim may not be negative")
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.d_embed != self.d_model:
            raise ConfigError(
                "the embedding width must equal the model width "
                f"(got d_embed={self.d_embed}, d_model={self.d_model})"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.vocab_size < 5:
            raise ConfigError("vocab_size must cover the four reserved ids")
        if self.max_len < 3:
            raise ConfigError("max_len must be at least 3")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def uses_demographics(self) -> bool:
        return self.demographic_dim > 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


def _attention_shapes(shapes: dict, prefix: str, cfg: ModelConfig, single_key=False) -> None:
    for role in ("wv", "wo") if single_key else ATTENTION_ROLES:
        shapes[f"{prefix}.{role}"] = (cfg.d_model, cfg.d_model)
    shapes[f"{prefix}.bo"] = (cfg.d_model,)


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The closed, ordered set of parameter names and their shapes."""
    shapes: dict[str, tuple[int, ...]] = {}
    shapes["visual.feat_norm.gain"] = (cfg.feature_dim,)
    shapes["visual.feat_norm.bias"] = (cfg.feature_dim,)
    shapes["visual.ff.w"] = (cfg.feature_dim, cfg.d_model)
    shapes["visual.ff.b"] = (cfg.d_model,)
    _attention_shapes(shapes, "visual.attn", cfg, single_key=True)
    shapes["visual.norm.gain"] = (cfg.d_model,)
    shapes["visual.norm.bias"] = (cfg.d_model,)
    if cfg.uses_demographics:
        shapes["semantic.fc.w"] = (cfg.demographic_dim, cfg.d_model)
        shapes["semantic.fc.b"] = (cfg.d_model,)
        _attention_shapes(shapes, "fusion.attn", cfg, single_key=True)
        shapes["fusion.norm.gain"] = (cfg.d_model,)
        shapes["fusion.norm.bias"] = (cfg.d_model,)
    shapes["embed.table"] = (cfg.vocab_size, cfg.d_embed)
    for i in range(cfg.n_decoder_blocks):
        _attention_shapes(shapes, f"dec{i}.self_attn", cfg)
        shapes[f"dec{i}.norm1.gain"] = (cfg.d_model,)
        shapes[f"dec{i}.norm1.bias"] = (cfg.d_model,)
        _attention_shapes(shapes, f"dec{i}.cross_attn", cfg, single_key=True)
        shapes[f"dec{i}.norm2.gain"] = (cfg.d_model,)
        shapes[f"dec{i}.norm2.bias"] = (cfg.d_model,)
        shapes[f"dec{i}.ff.w"] = (cfg.d_model, cfg.d_model)
        shapes[f"dec{i}.ff.b"] = (cfg.d_model,)
    shapes["classifier.w"] = (cfg.d_model, cfg.vocab_size)
    shapes["classifier.b"] = (cfg.vocab_size,)
    return shapes


def join_heads(role: str, blocks) -> np.ndarray:
    """One attention role's [d x d] matrix from its heads' blocks, in head
    order: [d x d_head] column blocks for wq/wk/wv, [d_head x d] row blocks
    for wo."""
    return np.concatenate(blocks, axis=0 if role == "wo" else 1)


def init_parameters(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Seeded Glorot-uniform weights; unit norm gains; zero biases.

    An attention block is drawn whole when its first matrix comes up: head
    by head, every role of head 0 first, each block with the Glorot limit of
    one head's [d x d_head] projection; the blocks are then joined per role.
    """
    rng = np.random.default_rng(seed)
    shapes = parameter_shapes(cfg)
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        prefix, _, role = name.rpartition(".")
        if name in params:
            continue
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith((".bias", ".b", ".bo")):
            data = np.zeros(shape)
        elif role in ATTENTION_ROLES:
            roles = [r for r in ATTENTION_ROLES if f"{prefix}.{r}" in shapes]
            limit = math.sqrt(6.0 / (cfg.d_model + cfg.d_head))
            size = (len(roles), cfg.d_model * cfg.d_head)
            # each head's draw is cast to the tensor dtype while it is in cache
            heads = [Tensor(rng.uniform(-limit, limit, size=size)).data for _ in range(cfg.n_heads)]
            for r, joined in enumerate(roles):
                width = cfg.d_model if joined == "wo" else cfg.d_head
                params[f"{prefix}.{joined}"] = Tensor(
                    join_heads(joined, [head[r].reshape(-1, width) for head in heads]),
                    requires_grad=True)
            continue
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-limit, limit, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def check_parameters(params: dict[str, Tensor], cfg: ModelConfig) -> None:
    """Verify the name set is exactly the closed set and shapes all match."""
    expected = parameter_shapes(cfg)
    missing = expected.keys() - params.keys()
    extra = params.keys() - expected.keys()
    if missing or extra:
        raise ContractError(
            f"parameter set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, shape in expected.items():
        if tuple(params[name].shape) != shape:
            raise ShapeError(
                f"parameter {name!r} has shape {tuple(params[name].shape)}, expected {shape}"
            )


def _linear(x: Tensor, params, prefix: str, relu: bool = False) -> Tensor:
    return T.linear(x, params[f"{prefix}.w"], params[f"{prefix}.b"], relu=relu)


def _multi_head_attention(params, prefix: str, cfg: ModelConfig, keyvalue: Tensor,
                          mask=None) -> Tensor:
    # without a mask, each keyvalue row is the one key of its own attention:
    # its softmax weight is exactly 1, so each head returns its value
    # projection. With a mask, this is self-attention: the rows are B
    # sequences of L positions, mask is their [B x L x L] mask, and each head
    # attends per sequence.
    attended = T.matmul(keyvalue, params[f"{prefix}.wv"])
    if mask is not None:
        q = T.matmul(keyvalue, params[f"{prefix}.wq"])
        k = T.matmul(keyvalue, params[f"{prefix}.wk"])
        attended = T.multi_head_attention(q, k, attended, cfg.n_heads, mask)
    return T.linear(attended, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _maybe_dropout(x: Tensor, cfg: ModelConfig, rng) -> Tensor:
    if rng is not None and cfg.dropout_rate > 0.0:
        return T.dropout(x, cfg.dropout_rate, rng)
    return x


def _rows(values, width: int, what: str) -> Tensor:
    """A [width] vector or a [B x width] stack of them, as a [B x width] tensor."""
    try:
        rows = np.asarray(values, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"{what} of unequal lengths: {exc}") from exc
    rows = rows.reshape(1, -1) if rows.ndim < 2 else rows
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ShapeError(f"expected {what} of length {width}, got shape {rows.shape}")
    return Tensor(rows)


def visual_encode(features, params, cfg: ModelConfig, rng=None) -> Tensor:
    """Image feature vectors [B x F] (or one [F]) -> normalized [B x d_model] rows;
    dropout runs when ``rng`` is given."""
    x = _rows(features, cfg.feature_dim, "image feature vectors")
    x = T.layer_norm(x, params["visual.feat_norm.gain"], params["visual.feat_norm.bias"])
    h = _linear(x, params, "visual.ff", relu=True)
    attended = _multi_head_attention(params, "visual.attn", cfg, h)
    attended = _maybe_dropout(attended, cfg, rng)
    return T.add_layer_norm(h, attended, params["visual.norm.gain"], params["visual.norm.bias"])


def semantic_encode(demo, params, cfg: ModelConfig) -> Tensor:
    """Demographic vectors [B x D] (or one [D]) -> [B x d_model] semantic rows."""
    if not cfg.uses_demographics:
        raise ContractError("this configuration has no semantic unit (demographic_dim=0)")
    return _linear(_rows(demo, cfg.demographic_dim, "demographic vectors"),
                   params, "semantic.fc")


def _check_fusion(visual_shape, semantic_shape, cfg: ModelConfig) -> None:
    if len(visual_shape) != 2 or visual_shape[1] != cfg.d_model \
            or semantic_shape != visual_shape:
        raise ShapeError(f"fusion expects two [B x {cfg.d_model}] inputs, got "
                         f"{tuple(visual_shape)} and {tuple(semantic_shape)}")


def fuse_visual_semantic(visual: Tensor, semantic: Tensor, params, cfg: ModelConfig,
                         rng=None) -> Tensor:
    """Attend from each visual row over the semantic row of the same example."""
    _check_fusion(visual.shape, semantic.shape, cfg)
    attended = _multi_head_attention(params, "fusion.attn", cfg, semantic)
    attended = _maybe_dropout(attended, cfg, rng)
    return T.add_layer_norm(visual, attended,
                            params["fusion.norm.gain"], params["fusion.norm.bias"])


def encode_inputs(features, demo, params, cfg: ModelConfig, rng=None) -> Tensor:
    """Run the full encoder: visual unit, then fusion when demographics are in use.

    ``features`` is [B x F] and ``demo`` [B x D] (or one vector each); the
    hybrid representation is [B x d_model]. Dropout runs when ``rng`` is
    given.
    """
    visual = visual_encode(features, params, cfg, rng=rng)
    if not cfg.uses_demographics:
        return visual
    if demo is None:
        raise ContractError("this configuration requires a demographic vector")
    semantic = semantic_encode(demo, params, cfg)
    return fuse_visual_semantic(visual, semantic, params, cfg, rng=rng)


def _single_key(arrays, prefix: str, keyvalue: np.ndarray) -> np.ndarray:
    """``_multi_head_attention`` without a mask, on the parameter ``arrays``."""
    return T._dense(keyvalue @ arrays[f"{prefix}.wv"], arrays[f"{prefix}.wo"],
                    arrays[f"{prefix}.bo"], False)


def _encode_arrays(features, demo, params, cfg: ModelConfig) -> np.ndarray:
    """``encode_inputs(features, demo, params, cfg).data`` bit for bit: the
    same checks and the same array arithmetic in the same order, on the
    parameters' arrays, with no ``Tensor`` op and no dropout."""
    arrays = {name: tensor.data for name, tensor in params.items()}
    x = _rows(features, cfg.feature_dim, "image feature vectors").data
    x = T._normalize(x, arrays["visual.feat_norm.gain"], arrays["visual.feat_norm.bias"])[0]
    h = T._dense(x, arrays["visual.ff.w"], arrays["visual.ff.b"], True)
    visual = T._normalize(h + _single_key(arrays, "visual.attn", h),
                          arrays["visual.norm.gain"], arrays["visual.norm.bias"])[0]
    if not cfg.uses_demographics:
        return visual
    if demo is None:
        raise ContractError("this configuration requires a demographic vector")
    semantic = T._dense(_rows(demo, cfg.demographic_dim, "demographic vectors").data,
                        arrays["semantic.fc.w"], arrays["semantic.fc.b"], False)
    _check_fusion(visual.shape, semantic.shape, cfg)
    return T._normalize(visual + _single_key(arrays, "fusion.attn", semantic),
                        arrays["fusion.norm.gain"], arrays["fusion.norm.bias"])[0]


@functools.cache
def _causal_mask(length: int) -> np.ndarray:
    """The read-only [length x length] causal mask: row t allows keys <= t."""
    mask = np.tri(length, dtype=bool)
    mask.flags.writeable = False
    return mask


def decoder_forward(target_ids, hybrid: Tensor, params, cfg: ModelConfig,
                    rng=None) -> Tensor:
    """Per-position vocabulary logits for (shifted) target id sequences.

    ``target_ids`` is [B x L], B sequences padded to one length, with
    ``hybrid`` [B x d_model]; one [L] sequence is the case B = 1. Returns
    [B*L x V] logits, row b*L + t for position t of sequence b. Position t
    sees only positions <= t of its own sequence; pad positions are excluded
    from the attention keys. Dropout runs when ``rng`` is given.
    """
    ids = np.asarray(target_ids, dtype=np.int64)
    ids = ids.reshape(1, -1) if ids.ndim < 2 else ids
    if ids.ndim != 2:
        raise ShapeError(f"decoder ids must be [L] or [B x L], got shape {ids.shape}")
    length = ids.shape[1]
    if ids.size == 0:
        raise ContractError("decoder needs at least one input id")
    if length > cfg.max_len:
        raise ContractError(f"sequence length {length} exceeds the maximum {cfg.max_len}")
    table = params["embed.table"]
    positions = T.sinusoidal_positions(cfg.max_len, cfg.d_embed, table.data.dtype)
    x = T.embedding(table, ids, positions[:length])
    cross = [_multi_head_attention(params, f"dec{i}.cross_attn", cfg, hybrid)
             for i in range(cfg.n_decoder_blocks)]
    # position t may attend to its sequence's kept positions <= t
    mask = _causal_mask(cfg.max_len)[:length, :length] & (ids != PAD_ID)[:, None, :]
    x = _maybe_dropout(x, cfg, rng)
    for i in range(cfg.n_decoder_blocks):
        attended = _multi_head_attention(params, f"dec{i}.self_attn", cfg, x, mask)
        attended = _maybe_dropout(attended, cfg, rng)
        x = T.add_layer_norm(x, attended,
                             params[f"dec{i}.norm1.gain"], params[f"dec{i}.norm1.bias"])
        # every position attends to its sequence's one hybrid row: the [B x d]
        # result is computed once and row b repeated for its L stream rows
        x = T.add_layer_norm(x, _maybe_dropout(T.repeat_rows(cross[i], length), cfg, rng),
                             params[f"dec{i}.norm2.gain"], params[f"dec{i}.norm2.bias"])
        ff = _linear(x, params, f"dec{i}.ff", relu=True)
        ff = _maybe_dropout(ff, cfg, rng)
        x = T.add(x, ff)
    return _linear(x, params, "classifier")


class DecodeCache:
    """The decoder run a few positions at a time on plain arrays, keeping
    what every later position reads of the earlier ones.

    Made for the [B x d_model] ``hybrid`` rows of B sequences. Each ``step``
    takes the next L ids of every sequence and returns their logits, equal
    to the rows ``decoder_forward`` gives those positions on the whole
    prefix. The cache holds a [B x max_len] key-keep buffer (ids != PAD_ID),
    the shared read-only [max_len x max_len] causal mask, each decoder
    block's [B x d] cross-attention row, and per block one [B x max_len x d]
    K row buffer and one V row buffer; a step writes its positions' rows in
    place and attends over a view of the first ``length``. A one-position
    step of sequences that hold no pad id, the whole of a report that
    ``generate`` decodes until it emits a pad, may attend to every cached
    key: it builds no mask and leaves the keep buffer, which starts all
    True, as it is. A step of several positions, or one at or after a pad,
    writes the keep buffer and attends under the causal and key-pad mask.
    """

    def __init__(self, hybrid: np.ndarray, params, cfg: ModelConfig):
        n_seq = hybrid.shape[0]
        arrays = {name: tensor.data for name, tensor in params.items()}
        self.n_heads = cfg.n_heads
        self.length = 0         # positions decoded so far
        self.keep = np.ones((n_seq, cfg.max_len), dtype=bool)
        self.padded = False     # whether a pad id has been decoded
        self.causal = _causal_mask(cfg.max_len)
        self.table = arrays["embed.table"]
        self.positions = T.sinusoidal_positions(cfg.max_len, cfg.d_embed, self.table.dtype)
        self.keys = [np.empty((n_seq, cfg.max_len, cfg.d_model), dtype=self.table.dtype)
                     for _ in range(cfg.n_decoder_blocks)]
        self.values = [np.empty_like(keys) for keys in self.keys]
        self.blocks = []        # per decoder block: its cross-attention row, then its weights
        for i in range(cfg.n_decoder_blocks):
            cross = _single_key(arrays, f"dec{i}.cross_attn", hybrid)
            self.blocks.append((cross, *(arrays[f"dec{i}.{name}"] for name in (
                "self_attn.wq", "self_attn.wk", "self_attn.wv", "self_attn.wo",
                "self_attn.bo", "norm1.gain", "norm1.bias", "norm2.gain", "norm2.bias",
                "ff.w", "ff.b"))))
        self.classifier = arrays["classifier.w"], arrays["classifier.b"]

    def step(self, ids: np.ndarray) -> np.ndarray:
        """[B*L x V] logits for the int64 [B x L] ``ids`` that follow the
        positions decoded so far.

        The ids are not range-checked: ``generate`` makes them. A sequence
        whose first id is ``PAD_ID`` is a ``ContractError``, since that
        position would have no key to attend to; every later position can
        attend to position 0, so the first step is the only one checked.
        """
        n_seq, length = ids.shape
        start, total = self.length, self.length + length
        if n_seq != self.keep.shape[0]:
            raise ShapeError(f"the cache holds {self.keep.shape[0]} sequences, got {n_seq}")
        if total > self.keep.shape[1]:
            raise ContractError(
                f"sequence length {total} exceeds the maximum {self.keep.shape[1]}")
        if not start and PAD_ID in ids[:, 0].tolist():
            raise ContractError("a sequence may not start with the pad id: its first "
                                "position would have every key masked out")
        if length == 1 and not self.padded and PAD_ID not in ids[:, 0].tolist():
            mask = None     # one new position, and every key so far is kept
        else:
            keep = ids != PAD_ID
            self.keep[:, start:total] = keep
            self.padded = self.padded or not keep.all()
            # position start + j may attend to its sequence's kept positions <= start + j
            mask = self.causal[start:total, :total] & self.keep[:, None, :total]
        self.length = total
        x = T._embed(self.table, ids, self.positions[start:total])
        for keys, values, (cross, wq, wk, wv, wo, bo, gain1, bias1, gain2, bias2, ff_w,
                           ff_b) in zip(self.keys, self.values, self.blocks):
            v = x @ wv
            keys[:, start:total] = (x @ wk).reshape(n_seq, length, -1)
            values[:, start:total] = v.reshape(n_seq, length, -1)
            attended = T._attend(x @ wq, keys[:, :total], values[:, :total], self.n_heads,
                                 mask)[0]
            x = T._normalize(x + T._dense(attended, wo, bo, False), gain1, bias1)[0]
            x = T._normalize(x + cross.repeat(length, axis=0), gain2, bias2)[0]
            x = x + T._dense(x, ff_w, ff_b, True)
        return T._dense(x, *self.classifier, False)


def generate(features, demo, params, cfg: ModelConfig, temperature: float = 0.5,
             seed=0) -> list[int]:
    """Autoregressively decode a report for one image/demographics pair.

    The encoder runs on the parameter arrays, and each step feeds a
    ``DecodeCache`` only the id chosen last, so a report of n ids runs n
    decoder positions, not the n(n+1)/2 of re-running every prefix, and
    nothing builds a ``Tensor`` or records on the tape.

    Temperature 0, or one too small to divide by in the logits' dtype, is
    exact argmax; otherwise the next id is drawn from
    softmax(logits / temperature) with ``np.random.default_rng(seed)``, so
    ``seed`` is anything that function takes (the command line and the
    benchmark pass ``[seed, report index]``), and repeated calls with
    identical arguments return identical sequences. A draw at or above the
    float cumulative total takes the last id of positive probability. A
    temperature that is negative or not finite is a ``ContractError``.
    Returns ids without the start marker, at most ``cfg.max_len`` of them,
    ending with ``END_ID`` unless the length cap was hit first.
    """
    if not 0.0 <= temperature < math.inf:
        raise ContractError(f"temperature must be finite and non-negative, got {temperature}")
    out: list[int] = []
    cache = DecodeCache(_encode_arrays(features, demo, params, cfg), params, cfg)
    greedy = temperature < np.finfo(cache.table.dtype).tiny   # 0, or it underflows to 0
    rng = None if greedy else np.random.default_rng(seed)
    ids = np.full((1, 1), START_ID)
    while len(out) < cfg.max_len:
        last = cache.step(ids)[-1]
        if greedy:
            next_id = int(last.argmax())
        else:
            # shifted before the division, so a tiny temperature cannot
            # make inf - inf = NaN
            probs = np.exp((last - np.maximum.reduce(last)) / temperature)
            probs /= np.add.reduce(probs)
            next_id = int(np.searchsorted(np.add.accumulate(probs), rng.random()))
            if next_id == len(probs):   # the draw passed the rounded total
                next_id = int(np.flatnonzero(probs)[-1])
        out.append(next_id)
        if next_id == END_ID:
            break
        ids[0, 0] = next_id
    return out
