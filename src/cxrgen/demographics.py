"""Encoding of patient metadata into the model's semantic input vector.

Layout of the encoded vector is fixed: gender (0 female / 1 male), min-max
normalized age, then a one-hot ethnicity slice over an ordered category
list, all zero for an ethnicity outside that list. Variant models may use
any subset of the three fields; the subset is applied in that same order.
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


def encode_demographics(rec: DemographicRecord, categories, age_min: int = DEFAULT_AGE_MIN,
                        age_max: int = DEFAULT_AGE_MAX) -> np.ndarray:
    """Encode one record as [gender, normalized age, ethnicity one-hot].

    Age is clipped to [age_min, age_max] and scaled to [0, 1]. An ethnicity
    outside ``categories`` yields an all-zero ethnicity slice.
    """
    categories = list(categories)
    if not categories or len(set(categories)) != len(categories):
        raise ConfigError("ethnicity categories must be non-empty and distinct")
    if age_max <= age_min:
        raise ConfigError(f"age bounds must satisfy min < max, got [{age_min}, {age_max}]")
    values = np.zeros(2 + len(categories), dtype=np.float32)
    values[0] = 0.0 if rec.gender == GENDER_FEMALE else 1.0
    clipped = min(max(rec.age, age_min), age_max)
    values[1] = (clipped - age_min) / (age_max - age_min)
    if rec.ethnicity in categories:
        values[2 + categories.index(rec.ethnicity)] = 1.0
    return values


@dataclass(frozen=True)
class DemographicCodec:
    """Reproducible record-to-vector encoding for a chosen field subset.

    Persist this alongside the dataset manifest so inference encodes
    records exactly as training did. ``from_dict`` ignores keys it does not
    know, such as the ``"strict"`` flag that earlier checkpoints stored.
    """
    categories: tuple[str, ...]
    fields: tuple[str, ...] = ALL_FIELDS
    age_min: int = DEFAULT_AGE_MIN
    age_max: int = DEFAULT_AGE_MAX

    def __post_init__(self):
        unknown = [f for f in self.fields if f not in ALL_FIELDS]
        if unknown:
            raise ConfigError(f"unknown demographic fields {unknown}; valid: {ALL_FIELDS}")
        if len(set(self.fields)) != len(self.fields):
            raise ConfigError("demographic fields must be distinct")

    @property
    def dim(self) -> int:
        widths = {"gender": 1, "age": 1, "ethnicity": len(self.categories)}
        return sum(widths[f] for f in self.fields)

    def encode(self, rec: DemographicRecord) -> np.ndarray:
        full = encode_demographics(rec, self.categories, self.age_min, self.age_max)
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
    def from_dict(cls, payload: dict) -> "DemographicCodec":
        return cls(
            categories=tuple(payload["categories"]),
            fields=tuple(payload["fields"]),
            age_min=int(payload["age_min"]),
            age_max=int(payload["age_max"]),
        )
