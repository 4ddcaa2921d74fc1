"""Encoding of patient metadata into the model's semantic input vector.

Layout of the encoded vector is fixed: gender (0 female / 1 male), min-max
normalized age, then a one-hot ethnicity slice over an ordered category
list, all zero for an ethnicity outside that list. Variant models may use
any subset of the three fields; the subset is applied in that same order.

``DemographicCodec`` is the one record of a model's demographic variant and
the one validator of its layout: a ``train`` checkpoint stores its
``to_dict`` payload (null for the image-only model), and ``from_dict``
reads that payload or ``demographics.json`` and raises ``ConfigError`` for
anything else.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

GENDER_FEMALE = "female"
GENDER_MALE = "male"
ALL_FIELDS = ("gender", "age", "ethnicity")

DEFAULT_AGE_MIN = 19
DEFAULT_AGE_MAX = 91


@dataclass(frozen=True)
class DemographicRecord:
    """Raw patient metadata attached to one data point."""
    gender: str
    age: int
    ethnicity: str

    def __post_init__(self):
        if self.gender not in (GENDER_FEMALE, GENDER_MALE):
            raise ContractError(f"gender must be female or male, got {self.gender!r}")


def select_top_categories(records, k: int) -> tuple[list[str], bool]:
    """The k most frequent ethnicity values, ties broken lexicographically.

    Returns (categories, under_k) where under_k flags that fewer than k
    distinct values existed, in which case all of them are returned.
    """
    if not records:
        raise ContractError("cannot select categories from an empty record list")
    if k < 1:
        raise ContractError(f"k must be at least 1, got {k}")
    counts = Counter(r.ethnicity for r in records)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    categories = [name for name, _ in ranked[:k]]
    return categories, len(counts) < k


def _check_layout(categories, age_min, age_max) -> None:
    """Raise ``ConfigError`` unless ``categories`` is a non-empty list (or
    tuple) of distinct strings and the age bounds are integers with
    ``age_min < age_max``."""
    if not (isinstance(categories, (list, tuple)) and categories
            and all(isinstance(c, str) for c in categories)
            and len(set(categories)) == len(categories)):
        raise ConfigError("categories must be a non-empty list of distinct strings, "
                          f"got {categories!r}")
    # True is an int in Python, so check the type exactly
    if not (type(age_min) is int and type(age_max) is int and age_min < age_max):
        raise ConfigError("age_min and age_max must be integers with age_min < age_max, "
                          f"got {age_min!r} and {age_max!r}")


@dataclass(frozen=True)
class DemographicCodec:
    """Reproducible record-to-vector encoding for a chosen field subset.

    A checkpoint stores it so that inference encodes records exactly as
    training did. Lists given for ``categories`` or ``fields`` are stored as
    tuples.
    """
    categories: tuple[str, ...]
    fields: tuple[str, ...] = ALL_FIELDS
    age_min: int = DEFAULT_AGE_MIN
    age_max: int = DEFAULT_AGE_MAX

    def __post_init__(self):
        _check_layout(self.categories, self.age_min, self.age_max)
        if not (isinstance(self.fields, (list, tuple))
                and all(f in ALL_FIELDS for f in self.fields)
                and len(set(self.fields)) == len(self.fields)):
            raise ConfigError(f"fields must be distinct names from {list(ALL_FIELDS)}, "
                              f"got {self.fields!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def dim(self) -> int:
        widths = {"gender": 1, "age": 1, "ethnicity": len(self.categories)}
        return sum(widths[f] for f in self.fields)

    def encode(self, rec: DemographicRecord) -> np.ndarray:
        """Encode one record as [gender, normalized age, ethnicity one-hot],
        restricted to ``fields``; the constructor has checked the layout.

        Age is clipped to [age_min, age_max] and scaled to [0, 1]. An
        ethnicity outside ``categories`` yields an all-zero ethnicity slice.
        """
        full = np.zeros(2 + len(self.categories), dtype=np.float32)
        full[0] = 0.0 if rec.gender == GENDER_FEMALE else 1.0
        clipped = min(max(rec.age, self.age_min), self.age_max)
        full[1] = (clipped - self.age_min) / (self.age_max - self.age_min)
        if rec.ethnicity in self.categories:
            full[2 + self.categories.index(rec.ethnicity)] = 1.0
        slices = {"gender": full[0:1], "age": full[1:2], "ethnicity": full[2:]}
        parts = [slices[f] for f in ALL_FIELDS if f in self.fields]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.float32)

    def to_dict(self) -> dict:
        return {
            "categories": list(self.categories),
            "fields": list(self.fields),
            "age_min": self.age_min,
            "age_max": self.age_max,
        }

    @classmethod
    def from_dict(cls, payload) -> "DemographicCodec":
        """The codec a ``to_dict`` payload or a ``demographics.json`` object
        describes; without ``fields`` it uses all three, and other keys are
        ignored. A payload that is not an object, lacks a key or holds a bad
        value raises ``ConfigError``."""
        if not isinstance(payload, dict):
            raise ConfigError(f"a demographic codec is a JSON object, got {payload!r}")
        missing = [key for key in ("categories", "age_min", "age_max") if key not in payload]
        if missing:
            raise ConfigError(f"missing key {missing[0]!r}")
        return cls(payload["categories"], payload.get("fields", ALL_FIELDS),
                   payload["age_min"], payload["age_max"])
