"""Text-generation metrics: corpus BLEU, embedding-based greedy-match F1,
and a paired two-sided Student's t-test for model comparison.

BLEU here is corpus-level: clipped n-gram matches are aggregated over the
whole corpus before taking the uniform geometric mean of orders 1..n and
multiplying by the brevity penalty. A zero clipped count at any order is
smoothed by substituting EPSILON for the numerator.

The embedding scores follow the greedy-matching recipe of BERTScore but run
over an injected static token-embedding table; no pretrained contextual
model is bundled, and reports produced here say so.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np
from scipy import stats

from .errors import ConfigError, ContractError, DegenerateInputError

EPSILON = 1e-9
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
        for i, (h, r) in enumerate(zip(hyp, ref)):
            if not h or not r:
                raise ContractError(f"corpus pair {i} contains an empty sequence")
        return cls(hyp, ref)

    def __len__(self):
        return len(self.hypotheses)


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


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
        for n in range(1, max_n + 1):
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
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

    ``unknown_policy`` is "error" (unresolvable tokens raise) or "zero"
    (unknown tokens get the zero vector, whose similarity to anything is 0).
    File format: one entry per line, the token followed by its
    whitespace-separated components.
    """

    def __init__(self, vectors: dict[str, np.ndarray], unknown_policy: str = "error"):
        if unknown_policy not in ("error", "zero"):
            raise ConfigError(f"unknown policy {unknown_policy!r}; use 'error' or 'zero'")
        if not vectors:
            raise ConfigError("embedding table is empty")
        self.vectors = {t: np.asarray(v, dtype=np.float64).reshape(-1)
                        for t, v in vectors.items()}
        dims = {v.shape[0] for v in self.vectors.values()}
        if len(dims) != 1:
            raise ConfigError(f"embedding table mixes dimensions {sorted(dims)}")
        self.dim = dims.pop()
        self.unknown_policy = unknown_policy

    def lookup(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is None:
            if self.unknown_policy == "error":
                raise ContractError(f"token {token!r} has no embedding")
            vec = np.zeros(self.dim)
        return vec

    @classmethod
    def from_file(cls, path, unknown_policy: str = "error") -> "EmbeddingTable":
        vectors = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) < 2:
                    raise ConfigError(f"{path}:{lineno}: token without components")
                vectors[parts[0]] = np.asarray([float(x) for x in parts[1:]])
        return cls(vectors, unknown_policy)


def embedding_f1(corpus: Corpus, table: EmbeddingTable) -> tuple[float, float, float]:
    """Greedy-matching precision/recall/F1 under a static embedding table.

    Per pair, precision is the mean over hypothesis tokens of the best
    cosine similarity to any reference token, recall the symmetric quantity;
    pair scores are averaged over the corpus and F1 is the harmonic mean of
    the aggregates. A zero vector (an unknown token under the ``zero``
    policy) has similarity 0 to everything.
    """
    p_sum = 0.0
    r_sum = 0.0
    for hyp, ref in zip(corpus.hypotheses, corpus.references):
        hyp_vecs = np.asarray([table.lookup(t) for t in hyp])
        ref_vecs = np.asarray([table.lookup(t) for t in ref])
        norms = np.outer(np.linalg.norm(hyp_vecs, axis=1), np.linalg.norm(ref_vecs, axis=1))
        sims = np.divide(hyp_vecs @ ref_vecs.T, norms, out=np.zeros_like(norms),
                         where=norms > 0)
        p_sum += float(sims.max(axis=1).mean())
        r_sum += float(sims.max(axis=0).mean())
    p = p_sum / len(corpus)
    r = r_sum / len(corpus)
    f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
    return p, r, f1


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant: bool


def paired_t_test(scores_a, scores_b, alpha: float = 0.05) -> TTestResult:
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
    p_value = 2.0 * float(stats.t.sf(abs(t_stat), df=n - 1))
    return TTestResult(t=t_stat, p=p_value, significant=p_value < alpha)


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

    def to_json(self, path=None) -> str:
        payload = json.dumps(asdict(self), indent=2) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        return payload

    @classmethod
    def from_json(cls, path) -> "EvaluationReport":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
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
