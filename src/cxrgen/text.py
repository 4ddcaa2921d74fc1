"""Report cleaning, tokenization, and vocabulary construction.

The cleaning pass turns a raw findings narrative into a lowercase token
sequence bracketed by start/end markers. Rule order is fixed and documented
here because downstream golden tests depend on it:

1. reject when the raw text has fewer than ``min_raw_words`` whitespace words;
2. lowercase, then reject when any configured rejection pattern matches
   (default patterns target references to prior studies);
3. replace ASCII punctuation characters with spaces and split on whitespace;
4. drop tokens containing any digit, and stop words;
5. apply the standardization map, longest phrase first;
6. reject if nothing remains;
7. reject if a letter is still uppercase (``str.lower`` leaves some, such
   as U+1D400), otherwise wrap in start/end markers.

Rejection is a normal outcome carrying a machine-readable reason code, not
an exception.

The steps themselves give every token the form ``CleanReport.validate``
checks: splitting yields no empty token, punctuation is translated away,
digit tokens are dropped, a canonical phrase of the map is checked when the
map is built, and step 7 covers case. So cleaning does not re-validate its
output; ``validate`` checks token sequences read back from a prepared file.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import repeat

from .errors import ConfigError, ContractError, IntegrityError
from .files import read_lines, read_text, write_lines

PAD_TOKEN = "<pad>"
START_TOKEN = "<start>"
END_TOKEN = "<end>"
UNK_TOKEN = "<unk>"
RESERVED_TOKENS = (PAD_TOKEN, START_TOKEN, END_TOKEN, UNK_TOKEN)
PAD_ID, START_ID, END_ID, UNK_ID = 0, 1, 2, 3

REASON_TOO_SHORT = "too_short"
REASON_PRIOR_REFERENCE = "prior_reference"
REASON_EMPTY = "empty_after_cleaning"
REASON_MALFORMED = "malformed_token"

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})
_PUNCTUATION = frozenset(string.punctuation)


@dataclass(frozen=True)
class CleanReport:
    """A cleaned report: lowercase word tokens bracketed by start/end markers."""
    id: str
    tokens: tuple[str, ...]

    @property
    def interior(self) -> tuple[str, ...]:
        return self.tokens[1:-1]

    def validate(self) -> None:
        if len(self.tokens) < 2 or self.tokens[0] != START_TOKEN or self.tokens[-1] != END_TOKEN:
            raise ContractError(f"report {self.id}: missing start/end markers")
        if not self.interior:
            raise ContractError(f"report {self.id}: empty interior")
        for token in self.interior:
            if _bad_token(token):
                raise ContractError(f"report {self.id}: malformed token {token!r}")

    def text(self) -> str:
        """Interior tokens joined by single spaces (a fixed point of cleaning)."""
        return " ".join(self.interior)


@dataclass(frozen=True)
class Rejected:
    """A report dropped by the pipeline, with the rule that dropped it."""
    id: str
    reason: str
    detail: str = ""


def _bad_token(token: str) -> bool:
    """Not one word under ``str.split()`` (empty, or holding whitespace), or
    holding an uppercase letter, a digit or ASCII punctuation."""
    return (token.split() != [token] or any(map(str.isupper, token))
            or any(map(str.isdigit, token)) or not _PUNCTUATION.isdisjoint(token))


class StandardizationMap:
    """Phrase rewrites applied to the token stream, longest source first.

    Canonical phrases must be lowercase words (the tokens cleaning yields)
    and fixed points of the map, which rules out rewrite cycles. The rules
    are indexed by their first source token, each bucket in the
    longest-first order, so a token that starts no rule costs one lookup.
    """

    def __init__(self, rules: dict[str, str] | list[tuple[str, str]] | None = None):
        pairs = rules.items() if isinstance(rules, dict) else (rules or [])
        ordered = sorted(((tuple(src.split()), tuple(dst.split())) for src, dst in pairs),
                         key=lambda r: (-len(r[0]), r[0]))
        self._by_first: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]] = {}
        for src, dst in ordered:
            if not src or not dst:
                raise ConfigError("standardization rules may not have empty sides")
            bad = [token for token in dst if _bad_token(token)]
            if bad:
                raise ConfigError(f"canonical phrase {' '.join(dst)!r} holds {bad[0]!r}, "
                                  "which is not a lowercase word")
            self._by_first.setdefault(src[0], []).append((src, dst))
        for _, dst in ordered:
            if self.apply(dst) != list(dst):
                raise ConfigError(
                    f"canonical phrase {' '.join(dst)!r} is not a fixed point of the map"
                )

    def apply(self, tokens) -> list[str]:
        tokens = list(tokens)
        out: list[str] = []
        done = 0   # tokens[:done] are rewritten into out
        for i, token in enumerate(tokens):
            if i < done or token not in self._by_first:
                continue
            for src, dst in self._by_first[token]:
                if tuple(tokens[i:i + len(src)]) == src:
                    out += tokens[done:i]
                    out += dst
                    done = i + len(src)
                    break
        out += tokens[done:]
        return out

    @classmethod
    def from_file(cls, path=None, digest=None) -> "StandardizationMap":
        """Parse lines of the form ``source phrase => canonical phrase``
        (default: the shipped map), adding the bytes read to ``digest``
        unless it is None."""
        pairs = []
        for lineno, line in _resource_lines(path, "standardization.txt", digest):
            if "=>" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'source => canonical', "
                                  f"got {line!r}")
            pairs.append(tuple(part.strip() for part in line.split("=>", 1)))
        try:
            return cls(pairs)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _resource_lines(path, name: str, digest) -> list[tuple[int, str]]:
    r"""``(line number, stripped line)`` for each line of the file at ``path``
    (default: the shipped resource ``name``) that is not blank or a # comment,
    adding the file's bytes to ``digest`` unless it is None. Lines end at
    ``\n``, ``\r\n`` and ``\r`` only."""
    if path:
        text = read_text(path, digest)
    else:
        with resources.as_file(resources.files("cxrgen") / "resources" / name) as shipped:
            text = read_text(shipped, digest)
    lines = enumerate((line.strip() for line in text.split("\n")), 1)
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def load_stopwords(path=None, digest=None) -> frozenset[str]:
    """One stop word per line (default: the shipped list), adding the bytes
    read to ``digest`` unless it is None."""
    return frozenset(line.lower() for _, line in _resource_lines(path, "stopwords.txt", digest))


def default_standardization_map() -> StandardizationMap:
    return StandardizationMap.from_file()


def load_reject_patterns(path=None, digest=None) -> list[re.Pattern]:
    """One regular expression per line, matched against the lowercased raw text
    (default: the shipped list), adding the bytes read to ``digest`` unless it
    is None; one that does not compile raises ``ConfigError`` naming
    ``path:line``."""
    patterns = []
    for lineno, line in _resource_lines(path, "reject_patterns.txt", digest):
        try:
            patterns.append(re.compile(line))
        except re.error as exc:
            raise ConfigError(f"{path}:{lineno}: invalid regular expression {line!r}: "
                              f"{exc}") from None
    return patterns


def clean_report(report_id: str, text: str, stopwords, std_map: StandardizationMap,
                 reject_patterns=(), min_raw_words: int = 9) -> CleanReport | Rejected:
    """Clean the raw findings narrative ``text`` of report ``report_id``, or
    return a Rejected with the dropping rule."""
    if len(text.split()) < min_raw_words:
        return Rejected(report_id, REASON_TOO_SHORT,
                        f"raw report has fewer than {min_raw_words} words")
    lowered = text.lower()
    for pattern in reject_patterns:
        if pattern.search(lowered):
            return Rejected(report_id, REASON_PRIOR_REFERENCE,
                            f"matched rejection pattern {pattern.pattern!r}")
    # no character is both a letter and a digit, so an all-letter token has no digit
    tokens = std_map.apply([t for t in lowered.translate(_PUNCT_TABLE).split()
                            if t not in stopwords
                            and (t.isalpha() or not any(map(str.isdigit, t)))])
    if not tokens:
        return Rejected(report_id, REASON_EMPTY, "no tokens survived cleaning")
    if any(map(str.isupper, "".join(tokens))):
        token = next(t for t in tokens if any(map(str.isupper, t)))
        return Rejected(report_id, REASON_MALFORMED, f"malformed token {token!r}")
    return CleanReport(report_id, (START_TOKEN, *tokens, END_TOKEN))


class Vocabulary:
    """Frequency-ranked token inventory with four fixed reserved ids.

    Ids 0..3 are pad, start, end, unknown, in that order; real tokens follow
    in rank order, each one word under ``str.split()``, the rule ``evaluate``
    splits a report line by, so a decoded report stays one line of its words.
    The on-disk format is one token per line, line number equal to id.
    """

    def __init__(self, tokens: list[str]):
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ConfigError("a vocabulary is a list of string tokens")
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise ConfigError(f"vocabulary must start with the reserved tokens {RESERVED_TOKENS}")
        if len(set(tokens)) != len(tokens):
            raise ConfigError("vocabulary contains duplicate tokens")
        bad = [t for t in tokens[4:] if t.split() != [t]]
        if bad:
            raise ConfigError(f"vocabulary token {bad[0]!r} is not one whitespace-free word")
        self.tokens = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}

    def __len__(self):
        return len(self.tokens)

    def save(self, path) -> None:
        write_lines(path, self.tokens)

    @classmethod
    def load(cls, path, digest) -> "Vocabulary":
        """Read a vocabulary file, adding its bytes to ``digest`` unless it is
        None; one that breaks a rule of the constructor raises
        ``IntegrityError`` naming the file."""
        tokens = [line.rstrip("\n") for line in read_lines(path, digest) if line.rstrip("\n")]
        try:
            return cls(tokens)
        except ConfigError as exc:
            raise IntegrityError(f"{path}: {exc}") from None


def build_vocabulary(corpus, cap: int = 2212) -> Vocabulary:
    """Rank interior tokens by frequency (ties lexicographic) and keep the top cap-4."""
    if cap < 5:
        raise ConfigError(f"vocabulary cap must leave room beyond the 4 reserved ids, got {cap}")
    if not corpus:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for report in corpus:
        counts.update(report.interior)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [token for token, _ in ranked[: cap - 4]]
    return Vocabulary(list(RESERVED_TOKENS) + kept)


def encode_tokens(report: CleanReport, vocab: Vocabulary, max_len: int):
    """Map a cleaned report to a fixed-length id sequence.

    Longer sequences are truncated to ``max_len`` with the end id forced
    into the final slot; shorter ones are right-padded with the pad id.
    """
    import numpy as np

    if max_len < 3:
        raise ContractError(f"max_len must be at least 3, got {max_len}")
    ids = list(map(vocab.token_to_id.get, report.tokens, repeat(UNK_ID)))
    if len(ids) > max_len:
        ids = ids[:max_len]
        ids[-1] = END_ID
    else:
        ids = ids + [PAD_ID] * (max_len - len(ids))
    return np.asarray(ids, dtype=np.int64)


def decode_ids(ids, vocab: Vocabulary) -> list[str]:
    """Inverse of encode_tokens up to unknown-token replacement and
    truncation, without pads and start/end markers."""
    tokens = [vocab.tokens[int(i)] for i in ids if int(i) != PAD_ID]
    return [t for t in tokens if t not in (START_TOKEN, END_TOKEN)]
