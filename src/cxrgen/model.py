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
With the loss's cross-entropy, a one-block model records 24 entries, or 20
without demographics; dropout adds one entry per site when its rate is
positive.

The network is written once. ``_encode`` is the encoder and ``_decode``
the decoder blocks plus the classifier, each over an op set: whole
sequences, in training and in validation, pass the ``cxrgen.tensor``
module, whose ops record on the tape when a parameter requires a gradient,
and generation passes ``_ARRAYS``, the same ops' forward arithmetic on
plain arrays (``tensor._dense``, ``tensor._normalize`` of a sum, ``@`` and
``np.repeat``). Self-attention is the one layer the two paths run
differently, so ``_decode`` takes it as a callable: ``decoder_forward``
hands it ``tensor.multi_head_attention`` under the causal and key-pad
mask, and ``DecodeCache`` its own ``_attend``.

Dropout runs exactly when a forward function is handed a dropout ``rng``
(at rate 0 ``tensor.dropout`` returns its input and draws nothing): the
encoder and the decoder take no separate training flag.
``training.batch_loss`` hands one to the model for a training step;
validation and generation hand none.

Every stage takes a batch: the encoder maps B feature rows (and B demographic
rows) to B hybrid rows, and the decoder runs B id sequences padded to one
length L as a [B*L x d] stream, with self-attention scores of shape
[B x H x L x L] under causal and key-pad masks. The decoder takes its ids
as a [B x L] array only, one sequence being the case B = 1; the encoder
also takes one feature vector (and one demographic vector) as a batch of 1.

Generation runs on plain numpy arrays from the features to the logits:
``_encode_arrays`` runs ``_encode`` with ``encode_inputs``'s checks, and a
``DecodeCache`` runs ``_decode`` one position at a time, building no
``Tensor`` op and recording nothing. Under the causal mask the keys and
values of earlier positions never change, so ``generate`` feeds its cache
only the last chosen id. The cache holds one preallocated
[B x max_len x d] K row buffer and one V row buffer per self-attention
block, into which each step writes its row in place, plus the key-keep
buffer and each block's cross-attention row (which depends only on the
hybrid representation) and weights, all made once. The new position's
scores are [B x H x 1 x (t+1)], over a view of the t cached keys and its
own, and the classifier runs on that one row. Until a pad id is decoded
every one of those keys is allowed, so the step builds no mask; from a pad
on, it applies the key-pad rule. The array encoder's rows equal
``encode_inputs``'s bit for bit, and a step's logits match
``decoder_forward``'s on the whole prefix to float rounding. Greedy
decoding builds no random generator.

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

The sizes a user sets are bounded: ``SIZE_BOUNDS`` holds the least and
greatest value of each, where ``MAX_LEN`` caps ``max_len``, ``MAX_D_MODEL``
the model width and ``MAX_DECODER_BLOCKS`` the decoder blocks, and
``ConfigError`` names a size outside its bounds. So no config, from
the command line or a checkpoint, makes ``parameter_shapes`` build an
unbounded name list, or ``init_parameters`` and ``DecodeCache`` ask numpy
for an array past its largest dimension. A model within the caps can still
be too large for a host; making it raises ``MemoryError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor
from .text import END_ID, PAD_ID, START_ID

ATTENTION_ROLES = ("wq", "wk", "wv", "wo")
# The longest sequence a model may be configured for, 20 times the paper's
# 50 ids: no parameter depends on max_len, so a checkpoint's config could
# otherwise make DecodeCache allocate without bound. At d_model 512 a block's
# K and V buffers then take 2 MB each per sequence in float32.
MAX_LEN = 1024
# The most decoder blocks a model may have, 64 times the paper's one: a
# checkpoint's config sets how many names parameter_shapes builds, so the
# cap bounds that list before the loader builds it.
MAX_DECODER_BLOCKS = 64
# The widest model, 16 times the paper's 512, whose [d x d] weights take
# 256 MB each in float32: a far wider one asks numpy for an array no host
# can hold, or one over numpy's largest dimension.
MAX_D_MODEL = 8192
# The least and greatest value of each integer field of ModelConfig: the
# vocabulary covers the four reserved ids and at least one word, a sequence
# holds a start id, a word and an end id, and an image-only model takes no
# demographic input.
SIZE_BOUNDS = {"feature_dim": (1, math.inf), "d_model": (1, MAX_D_MODEL),
               "d_embed": (1, math.inf), "n_heads": (1, math.inf),
               "vocab_size": (5, math.inf), "max_len": (3, MAX_LEN),
               "demographic_dim": (0, math.inf),
               "n_decoder_blocks": (1, MAX_DECODER_BLOCKS)}


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
        # a checkpoint's config comes from JSON: true, 16.0 and NaN are not sizes
        for name, (low, high) in SIZE_BOUNDS.items():
            value = getattr(self, name)
            if type(value) is not int or not low <= value <= high:
                raise ConfigError(f"{name} must be in [{low}, {high}], got {value!r}")
        if not isinstance(self.dropout_rate, (int, float)) or isinstance(self.dropout_rate, bool):
            raise ConfigError(f"dropout_rate must be a number, got {self.dropout_rate!r}")
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

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def uses_demographics(self) -> bool:
        return self.demographic_dim > 0


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


def _maybe_dropout(x, cfg: ModelConfig, rng):
    return x if rng is None else T.dropout(x, cfg.dropout_rate, rng)


# The ops of ``cxrgen.tensor`` that the forward definitions below use, as
# their forward arithmetic on plain arrays. Inference hands no dropout rng,
# so dropout is the identity and this set needs none.
_ARRAYS = SimpleNamespace(
    matmul=np.matmul, add=np.add, linear=T._dense,
    layer_norm=lambda x, gain, bias: T._normalize(x, gain, bias)[0],
    add_layer_norm=lambda x, residual, gain, bias: T._normalize(x + residual, gain, bias)[0],
    repeat_rows=lambda x, times: x.repeat(times, axis=0))


def _arrays(params) -> dict[str, np.ndarray]:
    return {name: tensor.data for name, tensor in params.items()}


def _rows(values, width: int, what: str) -> np.ndarray:
    """A [width] vector or a [B x width] stack of them, as a [B x width] array."""
    try:
        rows = np.asarray(values, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"{what} of unequal lengths: {exc}") from exc
    rows = rows.reshape(1, -1) if rows.ndim < 2 else rows
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ShapeError(f"expected {what} of length {width}, got shape {rows.shape}")
    return rows


def _encoder_rows(features, demo, cfg: ModelConfig, wrap):
    """The checked [B x F] feature rows and [B x D] demographic rows (None
    for an image-only model) of the encoder, each array passed through
    ``wrap``."""
    x = wrap(_rows(features, cfg.feature_dim, "image feature vectors"))
    if not cfg.uses_demographics:
        return x, None
    if demo is None:
        raise ContractError("this configuration requires a demographic vector")
    demo = wrap(_rows(demo, cfg.demographic_dim, "demographic vectors"))
    if demo.shape[0] != x.shape[0]:
        raise ShapeError(f"fusion expects one demographic row per feature row, got "
                         f"{x.shape[0]} feature rows and {demo.shape[0]} demographic rows")
    return x, demo


def _single_key(ops, params, prefix: str, keyvalue):
    """Attention of each row over its one key row ``keyvalue``: the softmax
    weight is exactly 1, so it is ``(keyvalue @ wv) @ wo + bo``."""
    return ops.linear(ops.matmul(keyvalue, params[f"{prefix}.wv"]),
                      params[f"{prefix}.wo"], params[f"{prefix}.bo"], False)


def _encode(x, demo, params, cfg: ModelConfig, ops, rng):
    """The encoder over the op set ``ops``: the [B x F] feature rows ``x``
    and the [B x D] demographic rows ``demo`` (None for an image-only model)
    -> the [B x d_model] hybrid rows."""
    x = ops.layer_norm(x, params["visual.feat_norm.gain"], params["visual.feat_norm.bias"])
    h = ops.linear(x, params["visual.ff.w"], params["visual.ff.b"], True)
    attended = _maybe_dropout(_single_key(ops, params, "visual.attn", h), cfg, rng)
    visual = ops.add_layer_norm(h, attended, params["visual.norm.gain"],
                                params["visual.norm.bias"])
    if demo is None:
        return visual
    semantic = ops.linear(demo, params["semantic.fc.w"], params["semantic.fc.b"], False)
    attended = _maybe_dropout(_single_key(ops, params, "fusion.attn", semantic), cfg, rng)
    return ops.add_layer_norm(visual, attended, params["fusion.norm.gain"],
                              params["fusion.norm.bias"])


def encode_inputs(features, demo, params, cfg: ModelConfig, rng=None) -> Tensor:
    """Run the full encoder: visual unit, then fusion when demographics are in use.

    ``features`` is [B x F] and ``demo`` [B x D] (or one vector each); the
    hybrid representation is [B x d_model]. Dropout runs when ``rng`` is
    given.
    """
    return _encode(*_encoder_rows(features, demo, cfg, Tensor), params, cfg, T, rng)


def _encode_arrays(features, demo, params, cfg: ModelConfig) -> np.ndarray:
    """``encode_inputs(features, demo, params, cfg).data`` bit for bit, run
    on the parameters' arrays, with the input rows cast to their dtype: no
    ``Tensor`` and no dropout."""
    arrays = _arrays(params)
    dtype = arrays["classifier.w"].dtype
    x, demo = _encoder_rows(features, demo, cfg, lambda rows: rows.astype(dtype))
    return _encode(x, demo, arrays, cfg, _ARRAYS, None)


@functools.cache
def _causal_mask(length: int) -> np.ndarray:
    """The read-only [length x length] causal mask: row t allows keys <= t."""
    mask = np.tri(length, dtype=bool)
    mask.flags.writeable = False
    return mask


_BLOCK_WEIGHTS = ("self_attn.wq", "self_attn.wk", "self_attn.wv", "self_attn.wo",
                  "self_attn.bo", "norm1.gain", "norm1.bias", "norm2.gain", "norm2.bias",
                  "ff.w", "ff.b")


def _blocks(hybrid, params, cfg: ModelConfig, ops) -> list[tuple]:
    """Per decoder block, its [B x d] cross-attention rows over the
    ``hybrid`` rows, then its weights in ``_BLOCK_WEIGHTS`` order."""
    return [(_single_key(ops, params, f"dec{i}.cross_attn", hybrid),
             *(params[f"dec{i}.{name}"] for name in _BLOCK_WEIGHTS))
            for i in range(cfg.n_decoder_blocks)]


def _decode(x, blocks, params, cfg: ModelConfig, ops, attend, rng):
    """The decoder blocks and the classifier over the op set ``ops``: the
    [B*L x d] embedded rows ``x`` of B sequences -> [B*L x V] logits.

    ``blocks`` is ``_blocks``'s list, and ``attend(i, q, k, v)`` runs block
    i's self-attention over the [B*L x d] Q, K and V rows.
    """
    length = x.shape[0] // blocks[0][0].shape[0]
    x = _maybe_dropout(x, cfg, rng)
    for i, (cross, wq, wk, wv, wo, bo, gain1, bias1, gain2, bias2, ff_w,
            ff_b) in enumerate(blocks):
        v = ops.matmul(x, wv)   # V, Q, K: the order of the products on the tape
        q = ops.matmul(x, wq)
        attended = ops.linear(attend(i, q, ops.matmul(x, wk), v), wo, bo, False)
        x = ops.add_layer_norm(x, _maybe_dropout(attended, cfg, rng), gain1, bias1)
        # every position attends to its sequence's one hybrid row: the [B x d]
        # result is computed once and row b repeated for its L stream rows
        x = ops.add_layer_norm(x, _maybe_dropout(ops.repeat_rows(cross, length), cfg, rng),
                               gain2, bias2)
        x = ops.add(x, _maybe_dropout(ops.linear(x, ff_w, ff_b, True), cfg, rng))
    return ops.linear(x, params["classifier.w"], params["classifier.b"], False)


def decoder_forward(target_ids, hybrid: Tensor, params, cfg: ModelConfig,
                    rng=None) -> Tensor:
    """Per-position vocabulary logits for (shifted) target id sequences.

    ``target_ids`` is [B x L], B sequences padded to one length (one
    sequence is [1 x L]), with ``hybrid`` [B x d_model]. Returns [B*L x V]
    logits, row b*L + t for position t of sequence b. Position t sees only
    positions <= t of its own sequence; pad positions are excluded from the
    attention keys. Dropout runs when ``rng`` is given.
    """
    ids = np.asarray(target_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeError(f"decoder ids must be [B x L], got shape {ids.shape}")
    length = ids.shape[1]
    if ids.size == 0:
        raise ContractError("decoder needs at least one input id")
    if length > cfg.max_len:
        raise ContractError(f"sequence length {length} exceeds the maximum {cfg.max_len}")
    table = params["embed.table"]
    positions = T.sinusoidal_positions(cfg.max_len, cfg.d_embed, table.data.dtype)
    x = T.embedding(table, ids, positions[:length])
    blocks = _blocks(hybrid, params, cfg, T)
    # position t may attend to its sequence's kept positions <= t
    mask = _causal_mask(cfg.max_len)[:length, :length] & (ids != PAD_ID)[:, None, :]
    return _decode(x, blocks, params, cfg, T,
                   lambda i, q, k, v: T.multi_head_attention(q, k, v, cfg.n_heads, mask), rng)


class DecodeCache:
    """The decoder run one position at a time on plain arrays, keeping what
    every later position reads of the earlier ones.

    Made for the [B x d_model] ``hybrid`` rows of B sequences. Each ``step``
    takes the next id of every sequence and returns its logits, equal to
    the row ``decoder_forward`` gives that position on the whole prefix. The
    cache holds a [B x max_len] key-keep buffer (ids != PAD_ID), each decoder
    block's [B x d] cross-attention row and weights, and per block one
    [B x max_len x d] K row buffer and one V row buffer. A step runs
    ``_decode`` on the arrays; its self-attention (``_attend``) writes the
    step's K and V rows in place and attends over a view of every row held
    so far. Until a pad id is decoded, the whole of a report that
    ``generate`` decodes until it emits a pad, the new position may attend
    to every cached key: the step builds no mask and leaves the keep
    buffer, which starts all True, as it is. From the first pad on, each
    step writes its column of the keep buffer and attends under it.
    """

    def __init__(self, hybrid: np.ndarray, params, cfg: ModelConfig):
        n_seq = hybrid.shape[0]
        self.cfg = cfg
        self.arrays = _arrays(params)
        self.length = 0         # the positions decoded so far
        self.mask = None        # the attention mask, None until a pad id is decoded
        self.keep = np.ones((n_seq, cfg.max_len), dtype=bool)
        self.table = self.arrays["embed.table"]
        self.positions = T.sinusoidal_positions(cfg.max_len, cfg.d_embed, self.table.dtype)
        self.keys = [np.empty((n_seq, cfg.max_len, cfg.d_model), dtype=self.table.dtype)
                     for _ in range(cfg.n_decoder_blocks)]
        self.values = [np.empty_like(keys) for keys in self.keys]
        self.blocks = _blocks(hybrid, self.arrays, cfg, _ARRAYS)

    def step(self, ids: np.ndarray) -> np.ndarray:
        """[B x V] logits for the int64 [B] ``ids``, the id that follows the
        positions decoded so far in each sequence.

        The ids are not range-checked: ``generate`` makes them in
        ``[0, vocab_size)``. A first id that is ``PAD_ID`` is a
        ``ContractError``, since that position would have no key to attend
        to; every later position can attend to position 0.
        """
        t = self.length
        if ids.shape != self.keep.shape[:1]:
            raise ShapeError(f"the cache holds {self.keep.shape[0]} sequences, "
                             f"got ids of shape {ids.shape}")
        if t == self.keep.shape[1]:
            raise ContractError(f"sequence length {t + 1} exceeds the maximum {t}")
        if self.mask is not None or PAD_ID in ids.tolist():
            if not t:
                raise ContractError("a sequence may not start with the pad id: its first "
                                    "position would have every key masked out")
            self.keep[:, t] = ids != PAD_ID
            # the new position may attend to its sequence's kept positions <= t
            self.mask = self.keep[:, None, :t + 1]
        self.length = t + 1
        x = T._embed(self.table, ids[:, None], self.positions[t:t + 1])
        return _decode(x, self.blocks, self.arrays, self.cfg, _ARRAYS, self._attend, None)

    def _attend(self, i: int, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Block i's self-attention: write the step's K and V rows into its
        buffers, then attend over a view of every row held so far."""
        keys, values, total = self.keys[i], self.values[i], self.length
        keys[:, total - 1] = k
        values[:, total - 1] = v
        return T._attend(q, keys[:, :total], values[:, :total], self.cfg.n_heads, self.mask)[0]


def generate(features, demo, params, cfg: ModelConfig, temperature: float,
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
    ids = np.full(1, START_ID)
    while len(out) < cfg.max_len:
        last = cache.step(ids)[0]
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
        ids[0] = next_id
    return out
