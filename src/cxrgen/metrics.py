"""Text-generation metrics: corpus BLEU, embedding-based greedy-match F1,
and a paired two-sided Student's t-test for model comparison.

BLEU here is corpus-level: clipped n-gram matches are aggregated over the
whole corpus before taking the uniform geometric mean of orders 1..n and
multiplying by the brevity penalty. A zero clipped count at any order is
smoothed by substituting EPSILON for the numerator. A hypothesis may be
empty (a model can emit the end marker first): it adds no n-grams and no
length, and it scores 0 in precision and recall of the embedding scores.
The BLEU of a corpus of empty hypotheses is 0. A reference may not be empty.

The embedding scores follow the greedy-matching recipe of BERTScore but run
over an injected static token-embedding table; no pretrained contextual
model is bundled, and reports produced here say so. The table is one
``[V x dim]`` matrix with its inverse row norms, built once. ``embedding_f1``
scores up to F1_GROUP pairs with one gather and one batched similarity
product ``[P x Lh x dim] @ [P x dim x Lr]``, so its memory is bounded by one
group, about F1_GROUP x L x (2 dim + L) floats for sequences of length L,
whatever the corpus size. BLEU clips each pair's n-grams of each order
(zipped slices of the sequence): when no hypothesis n-gram repeats, the
clipped count is the size of the set intersection of the two sides' n-grams;
otherwise both sides are counted with ``Counter`` and clipped with
``Counter &``.

The t-test's two-sided p is the regularized incomplete beta function
I_x(df/2, 1/2) at x = df/(df + t^2), evaluated with ``math.lgamma`` and the
modified Lentz continued fraction of Numerical Recipes (section 6.4), taken
at 1 - x through the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) where it
converges faster. It needs no statistics library.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, asdict, fields
from itertools import repeat

import numpy as np

from .errors import ConfigError, ContractError, DegenerateInputError, IntegrityError
from .files import read_json_object, read_lines, write_json

EPSILON = 1e-9
# a score read back may exceed its range by rounding, e.g. a cosine of 1 + 2e-16
SCORE_TOLERANCE = 1e-9
CF_TOLERANCE = 1e-15   # the continued fraction stops when a step changes it by less
CF_STEPS = 1000        # df from 1 to 10^8 and |t| from 1e-6 to 1e6 took 57 at most
F1_GROUP = 32   # pairs per batched similarity product in embedding_f1
DEFAULT_ALPHA = 0.05   # the t-test's significance level
EMBEDDING_NOTE = (
    "embedding scores use greedy matching over an injected static embedding "
    "table, not a pretrained contextual model"
)


@dataclass(frozen=True)
class Corpus:
    """Parallel hypothesis/reference token sequences, one reference each."""
    hypotheses: tuple[tuple[str, ...], ...]
    references: tuple[tuple[str, ...], ...]

    @classmethod
    def from_lists(cls, hypotheses, references) -> "Corpus":
        hyp = tuple(tuple(seq) for seq in hypotheses)
        ref = tuple(tuple(seq) for seq in references)
        if len(hyp) != len(ref):
            raise ContractError(
                f"corpus has {len(hyp)} hypotheses but {len(ref)} references"
            )
        if not hyp:
            raise ContractError("corpus is empty")
        for i, r in enumerate(ref):
            if not r:
                raise ContractError(f"corpus pair {i} has an empty reference")
        return cls(hyp, ref)

    def __len__(self):
        return len(self.hypotheses)


def _ngrams(seq, n: int):
    """The n-grams of ``seq`` in order: its tokens for n = 1, n-tuples above."""
    return seq if n == 1 else zip(*(seq[i:] for i in range(n)))


def bleu(corpus: Corpus, max_n: int = 4) -> list[float]:
    """Corpus BLEU-1..BLEU-max_n."""
    if max_n < 1:
        raise ContractError(f"max_n must be at least 1, got {max_n}")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(corpus.hypotheses, corpus.references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        # a hypothesis shorter than n has no n-grams, nor any longer ones
        for n in range(1, min(max_n, len(hyp)) + 1):
            count = len(hyp) - n + 1
            totals[n - 1] += count
            grams = set(_ngrams(hyp, n))
            if len(grams) == count:
                # each hypothesis count is 1, so min(1, r_g) counts g once if the reference has it
                matches[n - 1] += len(grams.intersection(_ngrams(ref, n)))
            else:
                clipped = Counter(_ngrams(hyp, n)) & Counter(_ngrams(ref, n))
                matches[n - 1] += sum(clipped.values())
    # exp(1 - r/c) below the reference length, which tends to 0 as c does
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len)) if hyp_len else 0.0
    log_precisions = []
    for n in range(max_n):
        numerator = matches[n] if matches[n] > 0 else EPSILON
        denominator = totals[n] if totals[n] > 0 else 1
        log_precisions.append(math.log(numerator / denominator))
    scores = []
    for n in range(1, max_n + 1):
        mean_log = sum(log_precisions[:n]) / n
        scores.append(brevity * math.exp(mean_log))
    return scores


class EmbeddingTable:
    """token -> fixed-width float vector, with an unknown-token policy.

    The vectors are the rows of one read-only ``[V x dim]`` float64
    ``matrix``, and ``rows`` maps each token to its row number.
    ``inverse_norms`` holds 1/|row| (0 for a zero row) and, at index V, one
    more 0 that stands for unknown tokens and pads. All of it is built once,
    here.

    ``unknown_policy`` is "error" (unresolvable tokens raise) or "zero"
    (unknown tokens get the zero vector, whose similarity to anything is 0).
    Every component must be a finite number, and no vector's norm may
    overflow float64.
    File format: one entry per line, the token followed by its
    whitespace-separated components, the same number on every line; a token
    may appear on one line only.
    """

    def __init__(self, vectors: dict[str, np.ndarray], unknown_policy: str = "error"):
        if unknown_policy not in ("error", "zero"):
            raise ConfigError(f"unknown policy {unknown_policy!r}; use 'error' or 'zero'")
        if not vectors:
            raise ConfigError("embedding table is empty")
        values = list(vectors.values())
        try:
            matrix = np.array(values, dtype=np.float64)
        except ValueError:  # vectors of unequal lengths
            matrix = None
        if matrix is None or matrix.ndim != 2:
            shapes = sorted({np.shape(v) for v in values})
            raise ConfigError(f"embedding vectors must share one 1-D shape, got {shapes}")
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        finite = np.isfinite(norms)
        if not finite.all():
            token = list(vectors)[int(np.argmin(finite))]
            raise ConfigError(f"embedding of {token!r} is not finite, or its norm "
                              "overflows float64")
        matrix.flags.writeable = False
        self.matrix = matrix
        self.rows = dict(zip(vectors, range(len(values))))
        self.unknown_policy = unknown_policy
        self.inverse_norms = np.zeros(len(values) + 1)
        np.divide(1.0, norms, out=self.inverse_norms[:-1], where=norms > 0)

    def row_numbers(self, tokens) -> np.ndarray:
        """The rows of ``matrix`` that hold ``tokens``; an unknown token is
        row V under the ``zero`` policy and raises under ``error``."""
        if self.unknown_policy == "zero":
            found = map(self.rows.get, tokens, repeat(len(self.rows)))
        else:
            found = map(self.rows.__getitem__, tokens)
        try:
            return np.fromiter(found, dtype=np.intp, count=len(tokens))
        except KeyError as exc:
            raise ContractError(f"token {exc.args[0]!r} has no embedding") from None

    @classmethod
    def from_file(cls, path, unknown_policy: str = "error") -> "EmbeddingTable":
        vectors = {}
        linenos = {}   # token -> the line that gave it
        first = None   # (line number, dimension) of the first entry
        for lineno, line in enumerate(read_lines(path), 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2:
                raise ConfigError(f"{path}:{lineno}: token without components")
            try:
                vec = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, vec)):
                raise ConfigError(f"{path}:{lineno}: non-finite component")
            if first is None:
                first = (lineno, len(vec))
            elif len(vec) != first[1]:
                raise ConfigError(f"{path}:{lineno}: {len(vec)} components, but "
                                  f"line {first[0]} has {first[1]}")
            if parts[0] in linenos:
                raise ConfigError(f"{path}:{lineno}: token {parts[0]!r} repeats "
                                  f"line {linenos[parts[0]]}")
            vectors[parts[0]], linenos[parts[0]] = vec, lineno
        return cls(vectors, unknown_policy)


def _padded_vectors(seqs, table: EmbeddingTable):
    """A group's vectors ``[P x L x dim]`` padded to the longest sequence,
    their ``[P x L]`` inverse norms (0 at pads and unknown tokens), the mask
    of real positions and the lengths."""
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    # at least one position, so that a group of empty sequences has one to reduce over
    real = np.arange(max(lengths.max(), 1)) < lengths[:, None]
    index = np.full(real.shape, len(table.rows))
    index[real] = table.row_numbers([token for seq in seqs for token in seq])
    # row V is past the matrix: "clip" reads row V - 1, and its inverse norm of 0 cancels it
    vectors = table.matrix.take(index, axis=0, mode="clip")
    return vectors, table.inverse_norms[index], real, lengths


def embedding_f1(corpus: Corpus, table: EmbeddingTable) -> tuple[float, float, float]:
    """Greedy-matching precision/recall/F1 under a static embedding table.

    Per pair, precision is the mean over hypothesis tokens of the best
    cosine similarity to any reference token, recall the symmetric quantity;
    pair scores are averaged over the corpus and F1 is the harmonic mean of
    the aggregates. A pair with an empty hypothesis has P = R = 0. A zero
    vector (an unknown token under the ``zero`` policy) has similarity 0 to
    everything, and it can still be a token's best match. Static embeddings
    can make P or R negative; F1 is 0.0 unless both are positive, so it
    stays in [0, 1].

    Pairs are scored F1_GROUP at a time: one gather of the group's vectors,
    one batched product ``[P x Lh x dim] @ [P x dim x Lr]`` scaled by the
    inverse norms, pad positions set to -inf, then the row and column
    maxima. Memory is bounded by one group's padded lengths, not by the
    corpus size.
    """
    p_sum = 0.0
    r_sum = 0.0
    for start in range(0, len(corpus), F1_GROUP):
        group = slice(start, start + F1_GROUP)
        hyp_vecs, hyp_inv, hyp_real, hyp_len = _padded_vectors(corpus.hypotheses[group], table)
        ref_vecs, ref_inv, ref_real, ref_len = _padded_vectors(corpus.references[group], table)
        sims = hyp_vecs @ ref_vecs.transpose(0, 2, 1)
        sims *= hyp_inv[:, :, None]
        sims *= ref_inv[:, None, :]
        sims[~(hyp_real[:, :, None] & ref_real[:, None, :])] = -np.inf
        best_hyp = np.where(hyp_real, sims.max(axis=2), 0.0)
        # an empty hypothesis (its first position is a pad) scores 0
        best_ref = np.where(ref_real & hyp_real[:, :1], sims.max(axis=1), 0.0)
        p_sum += float((best_hyp.sum(axis=1) / np.maximum(hyp_len, 1)).sum())
        r_sum += float((best_ref.sum(axis=1) / ref_len).sum())
    p = p_sum / len(corpus)
    r = r_sum / len(corpus)
    f1 = 2.0 * p * r / (p + r) if p > 0 and r > 0 else 0.0
    return p, r, f1


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant: bool


def paired_t_test(scores_a, scores_b, alpha: float = DEFAULT_ALPHA) -> TTestResult:
    """Two-sided paired Student's t-test on per-subset metric scores."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError(f"score lists must be equal-length vectors, got {a.shape} vs {b.shape}")
    if a.shape[0] < 2:
        raise ContractError("paired t-test needs at least 2 paired scores")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    diffs = a - b
    spread = float(np.ptp(diffs))
    if spread <= 1e-12 * max(1.0, float(np.abs(diffs).max())):
        raise DegenerateInputError("paired differences are identical to machine precision")
    n = diffs.shape[0]
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    t_stat = mean / (sd / math.sqrt(n))
    p_value = t_two_sided_p(t_stat, n - 1)
    return TTestResult(t=t_stat, p=p_value, significant=p_value < alpha)


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's T with ``df`` degrees of freedom: the
    regularized incomplete beta function I_x(df/2, 1/2) at x = df/(df + t^2).
    1 - x is passed in as t^2/(df + t^2), so a small |t| loses no bits."""
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a, b = df / 2.0, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    # the fraction converges fast below (a+1)/(a+b+2); above it use I_x(a, b) = 1 - I_y(b, a)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4)."""
    tiny = 1e-300   # stands in for a zero denominator
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, CF_STEPS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coefficient in (even, odd):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coefficient / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < CF_TOLERANCE:
            break
    return h


@dataclass
class EvaluationReport:
    """Per-corpus metric bundle with fixed key names for serialization."""
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    p_embed: float | None
    r_embed: float | None
    f1_embed: float | None
    n_pairs: int
    note: str = EMBEDDING_NOTE

    def to_json(self, path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def from_json(cls, path) -> "EvaluationReport":
        """Read a report that ``to_json`` wrote. Any other set of keys, a
        score that is not a number in its range (BLEU and F1 in [0, 1], P and
        R in [-1, 1], each widened by ``SCORE_TOLERANCE``), an embedding
        score that is neither that nor null (the three are null together or
        not at all), an ``n_pairs`` that is not an integer or a ``note`` that
        is not a string raises ``IntegrityError`` naming the file."""
        payload = read_json_object(path, IntegrityError, None)
        names = [f.name for f in fields(cls)]
        if sorted(payload) != sorted(names):
            raise IntegrityError(f"{path}: an evaluation report has the keys {names}, "
                                 f"got {list(payload)}")
        embed = ("p_embed", "r_embed", "f1_embed")
        for name, value in payload.items():
            if name == "n_pairs":
                valid = type(value) is int
            elif name == "note":
                valid = isinstance(value, str)
            else:
                low = -1.0 if name in ("p_embed", "r_embed") else 0.0
                valid = (type(value) in (int, float)
                         and low - SCORE_TOLERANCE <= value <= 1.0 + SCORE_TOLERANCE
                         or value is None and name in embed)
            if not valid:
                raise IntegrityError(f"{path}: bad value for {name}: {value!r}")
        if len({payload[name] is None for name in embed}) > 1:
            raise IntegrityError(f"{path}: {', '.join(embed)} must be null together")
        return cls(**payload)


def evaluate_corpus(corpus: Corpus, table: EmbeddingTable | None = None) -> EvaluationReport:
    scores = bleu(corpus, max_n=4)
    p = r = f1 = None
    if table is not None:
        p, r, f1 = embedding_f1(corpus, table)
    return EvaluationReport(
        bleu_1=scores[0], bleu_2=scores[1], bleu_3=scores[2], bleu_4=scores[3],
        p_embed=p, r_embed=r, f1_embed=f1, n_pairs=len(corpus),
    )
