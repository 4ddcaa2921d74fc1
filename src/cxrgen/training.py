"""Teacher-forced training loop: batching, loss, Adam updates, validation.

Loss is the mean sparse cross-entropy over every non-pad target position in
the batch, pooled across examples, so duplicating an example k times leaves
both the loss and the gradient direction unchanged. Pad positions contribute
exactly zero to the loss and to every gradient. The mean has one
definition: the cross-entropy op takes it (``tensor.sparse_cross_entropy``,
one tape entry).

A batch is one tape: its examples' teacher-forcing views are built as one
padded ``[B x L]`` array by whole-array operations, and one forward pass of
the model over all of them feeds one cross-entropy, so a training step
records one forward and replays one backward whatever the batch size. The
step's gradients land in the optimizer's flat gradient buffer and ``Adam``
updates the parameters in place there (see ``optim``); every parameter
gets a gradient on every step, and ``Adam`` refuses one that has none. The
dropout rng is the one training switch:
``batch_loss`` runs dropout exactly when handed one, and ``train_step``
refuses a model with dropout but no rng. Whole sequences take one path,
whether or not they train: validation (``evaluate_loss``) runs
``batch_loss`` without an rng over the parameters' arrays wrapped as tensors
that need no gradient, so the ops record nothing on the tape. ``fit``
always ends by restoring the parameters of the epoch with the lowest
validation loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .checkpoint import parameter_checksum
from .errors import ConfigError, ContractError, TrainingError
from .files import append_json_line, write_json_lines
from .model import ModelConfig, decoder_forward, encode_inputs
from .optim import Adam
from .tensor import Tensor
from .text import PAD_ID, encode_tokens


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 3e-4
    epochs: int = 50
    seed: int = 0
    patience: int | None = 10
    grad_clip: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be a positive finite number, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError("patience, when set, must be at least 1")
        if self.grad_clip is not None and not 0.0 < self.grad_clip < math.inf:
            raise ConfigError(
                f"grad_clip, when set, must be a positive finite number, got {self.grad_clip}")


@dataclass(frozen=True)
class EncodedExample:
    """One training example with the report already encoded to max_len ids."""
    id: str
    features: np.ndarray
    demo: np.ndarray | None
    ids: np.ndarray


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float
    param_checksum: str


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")

    def trajectory(self) -> list[tuple[float, float, str]]:
        """The reproducible part of the log (losses and checksums, no timing)."""
        return [(r.train_loss, r.val_loss, r.param_checksum) for r in self.records]


def encode_examples(points, vocab, codec, cfg: ModelConfig) -> list[EncodedExample]:
    """Turn DataPoints into ready-to-train arrays using the dataset's codec."""
    if cfg.uses_demographics and codec.dim != cfg.demographic_dim:
        raise ConfigError(f"codec produces {codec.dim}-wide vectors but the model "
                          f"expects {cfg.demographic_dim}")
    return [EncodedExample(point.id, np.asarray(point.features),
                           codec.encode(point.demographics) if cfg.uses_demographics else None,
                           encode_tokens(point.report, vocab, cfg.max_len))
            for point in points]


def teacher_forcing_batch(rows):
    """Split encoded sequences into padded decoder inputs, targets and loss mask.

    Each sequence is trimmed at its end marker (its last non-pad id): the
    decoder input runs from the start token up to the token before the end
    marker, and the targets are the same span shifted left (so the end
    marker is predicted). The rows, all of one width (``encode_tokens``
    pads each to ``max_len``), are stacked into one ``[B x W]`` int64 array
    and cut to the longest span ``L``; returns ``[B x L]`` inputs, targets
    and mask, with pad ids and a False mask past each row's span.
    """
    ids = np.stack(rows).astype(np.int64, copy=False)
    nonpad = ids != PAD_ID
    if (nonpad.sum(axis=1) < 2).any():
        raise ContractError("encoded report is too short to train on")
    last = ids.shape[1] - 1 - np.argmax(nonpad[:, ::-1], axis=1)
    length = int(last.max())
    inputs = np.where(np.arange(length) < last[:, None], ids[:, :length], PAD_ID)
    targets = ids[:, 1:length + 1]
    return inputs, targets, targets != PAD_ID


def batch_loss(batch, params, cfg: ModelConfig, rng=None) -> tuple[Tensor, int]:
    """Pooled cross-entropy over all non-pad positions of a batch.

    The examples' ids are assembled into ``[B x L]`` teacher-forcing arrays
    by whole-array operations (``teacher_forcing_batch``) and run through
    one forward pass; returns the mean loss and the number of positions it
    pools. Dropout runs when an ``rng`` is given, drawing from it. The ops
    record on the tape when a parameter requires a gradient.
    """
    if not batch:
        raise ContractError("a batch needs at least one example")
    demos = [ex.demo for ex in batch]
    inputs, targets, mask = teacher_forcing_batch([ex.ids for ex in batch])
    hybrid = encode_inputs([ex.features for ex in batch],
                           None if any(d is None for d in demos) else demos, params, cfg, rng=rng)
    logits = decoder_forward(inputs, hybrid, params, cfg, rng=rng)
    loss = T.sparse_cross_entropy(logits, targets.reshape(-1), mask.reshape(-1))
    return loss, int(mask.sum())


def clip_gradients(params, max_norm: float) -> float:
    """Scale every gradient in place by ``max_norm / norm`` when their global
    L2 norm exceeds ``max_norm``; return the norm. The squares are summed in
    float64, so float32 gradients cannot overflow it; a norm that is still
    not finite (a NaN or infinite gradient) raises ``TrainingError``."""
    grads = [p.grad for p in params.values() if p.grad is not None]
    norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads))
    if not math.isfinite(norm):
        raise TrainingError(f"gradient norm is {norm}")
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def train_step(batch, params, optimizer: Adam, cfg: ModelConfig,
               rng=None, grad_clip: float | None = None) -> tuple[float, int]:
    """One optimization step; returns (loss, token count) for the batch."""
    if rng is None and cfg.dropout_rate > 0.0:
        raise ContractError("a training step with dropout needs an rng")
    T.reset_graph()
    optimizer.zero_grad()
    loss, count = batch_loss(batch, params, cfg, rng=rng)
    value = loss.item()
    if not np.isfinite(value):
        ids = [ex.id for ex in batch]
        raise TrainingError(f"non-finite loss {value} on batch {ids}")
    T.backward(loss)
    if grad_clip is not None:
        clip_gradients(params, grad_clip)
    optimizer.step()
    T.reset_graph()
    return value, count


def evaluate_loss(examples, params, cfg: ModelConfig, batch_size: int) -> float:
    """Mean token loss: ``batch_loss`` without an rng per batch, pooled over
    the batches' token counts. The parameters' arrays are wrapped, not
    copied, as tensors that need no gradient, so nothing is recorded."""
    if not examples:
        raise ConfigError("cannot evaluate on an empty split")
    frozen = {name: Tensor._wrap(p.data) for name, p in params.items()}
    total = 0.0
    count = 0
    for start in range(0, len(examples), batch_size):
        loss, n = batch_loss(examples[start:start + batch_size], frozen, cfg)
        total += loss.item() * n
        count += n
    return total / count


def epoch_order(n: int, epoch: int, seed: int) -> np.ndarray:
    """The seeded permutation used for epoch ``epoch``; exposed for testing."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def fit(train_examples, val_examples, params, cfg: ModelConfig,
        train_cfg: TrainConfig, log_path=None) -> TrainLog:
    """Epoch loop with seeded shuffling, per-epoch validation, and best tracking.

    The parameter set achieving the minimum validation loss is retained and
    restored into ``params`` at the end; fit writes no checkpoint, so the
    caller saves ``params`` afterwards. If no epoch has a finite validation
    loss there is no such set, and that raises ``TrainingError``. A
    ``log_path`` is emptied once both splits are known to hold examples
    and the optimizer's buffers are made, then gets one JSON line per epoch.
    """
    if not train_examples:
        raise ConfigError("training split is empty")
    if not val_examples:
        raise ConfigError("validation split is empty")
    dropout_rng = np.random.default_rng([train_cfg.seed, 0xD0])
    optimizer = Adam(params, lr=train_cfg.learning_rate)
    if log_path is not None:
        write_json_lines(log_path, ())
    log = TrainLog()
    best_state: dict[str, np.ndarray] | None = None
    stale = 0
    for epoch in range(train_cfg.epochs):
        started = time.perf_counter()
        order = epoch_order(len(train_examples), epoch, train_cfg.seed)
        loss_sum = 0.0
        token_count = 0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [train_examples[i] for i in order[start:start + train_cfg.batch_size]]
            value, n = train_step(batch, params, optimizer, cfg,
                                  rng=dropout_rng, grad_clip=train_cfg.grad_clip)
            loss_sum += value * n
            token_count += n
        train_loss = loss_sum / token_count
        val_loss = evaluate_loss(val_examples, params, cfg, train_cfg.batch_size)
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            val_loss=val_loss,
            seconds=time.perf_counter() - started,
            param_checksum=parameter_checksum(params, cfg),
        )
        log.records.append(record)
        if log_path is not None:
            append_json_line(log_path, asdict(record))
        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in params.items()}
            stale = 0
        else:
            stale += 1
        if train_cfg.patience is not None and stale >= train_cfg.patience:
            break
    if best_state is None:
        raise TrainingError(
            f"no epoch of {len(log.records)} produced a finite validation loss "
            f"(last: {log.records[-1].val_loss})"
        )
    for name, data in best_state.items():
        params[name].data = data
    return log
