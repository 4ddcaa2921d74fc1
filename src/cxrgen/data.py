"""Dataset assembly: ingestion, balanced subset sampling, splits, and a
seeded synthetic-corpus generator.

The synthetic generator stands in for credentialed clinical data. It draws
image-feature vectors from per-stratum Gaussian clusters and renders report
text from templates. Each feature cluster is shared by two demographic
strata whose reports differ in a stratum-specific marker sentence, so
demographics carry predictive signal that the features alone cannot
provide; that construction is what the fusion-benefit experiment measures.

File formats:

* dataset file: one JSON record per line with ``id``, ``report`` (raw
  text), ``gender``, ``age``, ``ethnicity`` and an inline ``features``
  array; a prepared file has ``tokens`` in place of ``report``, and both
  are read by one parser that names ``path:line`` for a bad record;
* split manifest: JSON with exactly the lists ``train_ids``, ``val_ids``
  and ``test_ids`` (cut 70:20:10, ``SPLIT_RATIOS``). ``prepare-data`` cuts
  subset ``i`` with seed ``seed + i``; the seed, the subset size and the
  dataset path are in its ``provenance.json``, so the manifest does not
  repeat them. A manifest written with the ``subset_id``, ``seed`` and
  ``params`` it once held still loads, and those keys are not read.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from .demographics import DemographicRecord
from .errors import ConfigError, ContractError, IntegrityError, SizingError
from .files import read_json_object, read_lines, write_json, write_json_lines
from .text import (DEFAULT_MIN_RAW_WORDS, END_TOKEN, START_TOKEN, CleanReport, Rejected,
                   StandardizationMap, clean_report, load_reject_patterns, load_stopwords)

SPLIT_RATIOS = (0.70, 0.20, 0.10)   # train, validation, test
RETIRED_SPLIT_KEYS = ("subset_id", "seed", "params")   # written once, no longer read


@dataclass(frozen=True)
class DataPoint:
    """One example: image features, cleaned report, and patient metadata."""
    id: str
    features: np.ndarray
    report: CleanReport
    demographics: DemographicRecord


@dataclass(frozen=True)
class IngestRecord:
    """One line of a dataset file, before cleaning."""
    id: str
    text: str
    demographics: DemographicRecord
    features: np.ndarray


@dataclass
class SplitManifest:
    """The ids of one subset's train, validation and test splits."""
    train_ids: list[str]
    val_ids: list[str]
    test_ids: list[str]

    def validate(self) -> None:
        groups = [set(self.train_ids), set(self.val_ids), set(self.test_ids)]
        if len(set().union(*groups)) != sum(map(len, groups)):
            raise ContractError("split id lists overlap")

    def save(self, path) -> None:
        self.validate()
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path, digest) -> "SplitManifest":
        """Read a split manifest, adding its bytes to ``digest`` unless it is
        None. Each id list must be a JSON list of strings; a retired key is
        skipped, and any other key is an ``IntegrityError``."""
        payload = read_json_object(path, IntegrityError, digest)
        try:
            manifest = cls(**{k: v for k, v in payload.items() if k not in RETIRED_SPLIT_KEYS})
            if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                       for ids in vars(manifest).values()):
                raise ContractError("each id list must be a list of strings")
            manifest.validate()
        except (TypeError, ContractError) as exc:   # a missing, unknown or mistyped field
            raise IntegrityError(f"{path} is not a split manifest: {exc}") from None
        return manifest


# ---------------------------------------------------------------------------
# Sampling and splitting
# ---------------------------------------------------------------------------

def sample_subsets(pool, k_subsets: int, subset_size: int, seed: int) -> list[list[str]]:
    """Draw ``k_subsets`` disjoint id lists of ``subset_size`` from the pool.

    Selection flattens the report-frequency distribution: examples are
    grouped into report-duplicate equivalence classes and taken one per
    class per pass, rarest class first, then dealt round-robin across the
    subsets. Deterministic under the seed.
    """
    if k_subsets < 1 or subset_size < 1:
        raise ConfigError(f"cannot draw {k_subsets} subset(s) of {subset_size} examples: "
                          "both counts must be positive")
    need = k_subsets * subset_size
    if need > len(pool):
        raise SizingError(
            f"requested {k_subsets} x {subset_size} = {need} examples "
            f"from a pool of {len(pool)}"
        )
    rng = np.random.default_rng(seed)
    classes: dict[tuple[str, ...], list[str]] = {}
    for point in pool:
        classes.setdefault(point.report.interior, []).append(point.id)
    ordered_keys = sorted(classes, key=lambda key: (len(classes[key]), key))
    queues = []
    for key in ordered_keys:
        members = sorted(classes[key])
        rng.shuffle(members)
        queues.append(deque(members))
    subsets: list[list[str]] = [[] for _ in range(k_subsets)]

    def place(point_id: str, start: int) -> None:
        for offset in range(k_subsets):
            subset = subsets[(start + offset) % k_subsets]
            if len(subset) < subset_size:
                subset.append(point_id)
                return

    # One pick per class per pass, rarest class first. The dealing offset
    # rotates every pass so no class can resonate onto a single subset when
    # the class count divides the subset count evenly.
    taken = 0
    for cycle in range(need):
        if taken == need:
            break
        position = 0
        for queue in queues:
            if taken == need:
                break
            if queue:
                place(queue.popleft(), cycle + position)
                position += 1
                taken += 1
    return subsets


def split(ids, seed: int) -> SplitManifest:
    """Seeded shuffle then contiguous train/val/test cut in ``SPLIT_RATIOS``,
    sizes within 1 of exact."""
    ids = list(ids)
    if not ids:
        raise ConfigError("cannot split an empty subset")
    order = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n = len(ids)
    exact = [r * n for r in SPLIT_RATIOS]
    counts = [int(e) for e in exact]
    leftovers = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in range(n - sum(counts)):
        counts[leftovers[i % 3]] += 1
    train_end = counts[0]
    val_end = counts[0] + counts[1]
    manifest = SplitManifest(shuffled[:train_end], shuffled[train_end:val_end],
                             shuffled[val_end:])
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

# One finding sentence per feature cluster.
FINDINGS = (
    "The lungs are clear bilaterally with no focal consolidation effusion or pneumothorax.",
    "Patchy airspace opacity involving the right lower lobe likely reflects pneumonia.",
    "Mild pulmonary interstitial edema with small layering bilateral pleural effusions.",
    "Moderate cardiomegaly with tortuous aorta but without acute pulmonary process.",
)

# The demographic strata as (gender, ethnicity, cluster, marker sentence);
# stratum i's records have ids s<ii>-<jjjj>. Each cluster is shared by two
# strata, which differ in gender and marker.
STRATA = (
    ("female", "group_a", 0, "Degenerative endplate spurring noted along the thoracic spine."),
    ("male", "group_a", 0, "Surgical clips project over the right upper abdominal quadrant."),
    ("female", "group_b", 1, "Dense calcified granuloma seen near the cardiac apex."),
    ("male", "group_b", 1, "Elevated left hemidiaphragm with adjacent atelectatic banding."),
    ("female", "group_c", 2, "Tracheostomy cannula positioned midline well above carina level."),
    ("male", "group_c", 2, "Dual chamber pacemaker leads terminate appropriately within ventricle."),
    ("female", "group_d", 3, "Healed rib fractures deform the lateral costal margins."),
    ("male", "group_d", 3, "Diffuse osteopenia involving the imaged skeleton raises concern."),
)

CLOSING = "No acute osseous abnormality otherwise identified on this examination."
FEATURE_NOISE = 0.25   # standard deviation of a feature around its cluster center
AGE_RANGE = (22, 88)   # ages are drawn uniformly from this range, both ends included


@dataclass(frozen=True)
class CorpusSpec:
    """Size of the synthetic corpus; its content is the module constants above."""
    n_per_stratum: int = 150
    feature_dim: int = 24

    def __post_init__(self):
        if self.n_per_stratum < 1 or self.feature_dim < 1:
            raise ConfigError("n_per_stratum and feature_dim must be positive")


default_corpus_spec = CorpusSpec   # the name bench/pipeline.py builds its spec by


def synthesize_records(spec: CorpusSpec, seed: int) -> list[IngestRecord]:
    """Generate a fully deterministic raw corpus from ``spec``: a report
    reads finding, marker, ``CLOSING``."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(len(FINDINGS), spec.feature_dim))
    records: list[IngestRecord] = []
    for i, (gender, ethnicity, cluster, marker) in enumerate(STRATA):
        for j in range(spec.n_per_stratum):
            features = (
                centers[cluster]
                + FEATURE_NOISE * rng.normal(0.0, 1.0, size=spec.feature_dim)
            ).astype(np.float32)
            age = int(rng.integers(AGE_RANGE[0], AGE_RANGE[1] + 1))
            records.append(IngestRecord(f"s{i:02d}-{j:04d}",
                                        f"{FINDINGS[cluster]} {marker} {CLOSING}",
                                        DemographicRecord(gender, age, ethnicity), features))
    return records


def synthesize_corpus(spec: CorpusSpec, seed: int) -> list[DataPoint]:
    """``synthesize_records(spec, seed)`` cleaned by ``build_datapoints`` with
    the shipped cleaning resources; a template that the cleaning rejects
    raises ``ConfigError``."""
    points, rejects = build_datapoints(synthesize_records(spec, seed))
    if rejects:
        raise ConfigError(
            f"synthetic template of record {rejects[0].id!r} was rejected by the "
            f"cleaning pipeline ({rejects[0].reason}); fix the template"
        )
    return points


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _write_records(points, path, text_field: str, text) -> None:
    """Write one JSON line per ``IngestRecord`` or ``DataPoint``, features
    inline as float32 values; ``text(point)`` is its ``text_field``
    ("report" or "tokens")."""
    write_json_lines(path, ({
        "id": point.id,
        text_field: text(point),
        "gender": point.demographics.gender,
        "age": point.demographics.age,
        "ethnicity": point.demographics.ethnicity,
        "features": [float(x) for x in np.asarray(point.features, dtype="<f4")],
    } for point in points))


def write_dataset(records, path) -> None:
    """Serialize IngestRecords as a line-delimited dataset file, features inline."""
    _write_records(records, path, "report", lambda record: record.text)


def _parse_records(path, text_field: str, digest):
    """Yield ``(line number, record, features, demographics)`` for each record
    of a dataset file (``text_field`` "report") or a prepared one ("tokens"),
    adding the file's bytes to ``digest`` unless it is None.

    A line that is not a JSON object, a missing field, an id that repeats an
    earlier record's, features that are not a non-empty flat list of numbers
    finite in float32 or whose width differs from the first record's, an age
    that is not an integer and a gender other than female or male each raise
    ``IntegrityError`` naming ``path:line``.
    """
    fields = ("id", text_field, "gender", "age", "ethnicity", "features")
    first = None   # (line number, width) of the first record
    linenos = {}   # id -> the line that gave it
    for lineno, line in enumerate(read_lines(path, digest), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:   # too deeply nested
            raise IntegrityError(f"{where}: malformed record: {exc}") from None
        if not isinstance(payload, dict):
            raise IntegrityError(f"{where}: record is not a JSON object")
        missing = [key for key in fields if key not in payload]
        if missing:
            raise IntegrityError(f"{where}: missing field {missing[0]!r}")
        record_id = str(payload["id"])
        if record_id in linenos:
            raise IntegrityError(f"{where}: id {record_id!r} repeats line "
                                 f"{linenos[record_id]}")
        linenos[record_id] = lineno
        values = payload["features"]
        if not (isinstance(values, list) and values
                and all(type(x) in (int, float) for x in values)):
            raise IntegrityError(f"{where}: features must be a non-empty flat "
                                 "list of numbers")
        with np.errstate(over="ignore"):   # an overflow is caught just below
            features = np.asarray(values, dtype=np.float32)
        if not np.isfinite(features).all():
            raise IntegrityError(f"{where}: a feature is not finite in float32")
        if first is None:
            first = (lineno, features.size)
        elif features.size != first[1]:
            raise IntegrityError(f"{where}: {features.size} features, but line "
                                 f"{first[0]} has {first[1]}")
        if type(payload["age"]) is not int:
            raise IntegrityError(f"{where}: age must be an integer, "
                                 f"got {payload['age']!r}")
        try:
            demographics = DemographicRecord(str(payload["gender"]), payload["age"],
                                             str(payload["ethnicity"]))
        except ContractError as exc:
            raise IntegrityError(f"{where}: {exc}") from None
        yield lineno, payload, features, demographics


def load_raw_records(path, digest) -> list[IngestRecord]:
    """Parse a dataset file, adding its bytes to ``digest`` unless it is None
    (see ``_parse_records`` for what it rejects)."""
    return [IngestRecord(str(payload["id"]), str(payload["report"]), demographics, features)
            for _, payload, features, demographics in _parse_records(path, "report", digest)]


def build_datapoints(records, stopwords=None, std_map=None, reject_patterns=None,
                     min_raw_words: int = DEFAULT_MIN_RAW_WORDS
                     ) -> tuple[list[DataPoint], list[Rejected]]:
    """Clean ingested records into DataPoints; rejections are returned, not raised.

    Cleaning reads only a report's text, so each distinct text is cleaned
    once per call; a later record with the same text gets that outcome
    (``CleanReport`` or ``Rejected``) with its own id stamped on.
    """
    stopwords = load_stopwords() if stopwords is None else stopwords
    std_map = StandardizationMap.from_file() if std_map is None else std_map
    reject_patterns = load_reject_patterns() if reject_patterns is None else reject_patterns
    points: list[DataPoint] = []
    rejects: list[Rejected] = []
    outcomes: dict[str, CleanReport | Rejected] = {}
    for record in records:
        outcome = outcomes.get(record.text)
        if outcome is None:
            outcome = clean_report(record.id, record.text, stopwords, std_map,
                                   reject_patterns, min_raw_words=min_raw_words)
            outcomes[record.text] = outcome
        else:
            outcome = replace(outcome, id=record.id)
        if isinstance(outcome, Rejected):
            rejects.append(outcome)
            continue
        points.append(DataPoint(
            id=record.id,
            features=record.features,
            report=outcome,
            demographics=record.demographics,
        ))
    return points, rejects


def write_prepared_dataset(points, path) -> None:
    """Serialize cleaned DataPoints (tokens, not raw text) for training stages."""
    _write_records(points, path, "tokens", lambda point: list(point.report.interior))


def load_prepared_dataset(path, digest) -> list[DataPoint]:
    """Inverse of write_prepared_dataset, adding the file's bytes to ``digest``
    unless it is None; token sequences are trusted as cleaned once they
    validate (see ``_parse_records`` for what else it rejects)."""
    points: list[DataPoint] = []
    for lineno, payload, features, demographics in _parse_records(path, "tokens", digest):
        tokens = payload["tokens"]
        # a string would otherwise be read as a list of one-character tokens
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise IntegrityError(f"{path}:{lineno}: tokens must be a list of strings")
        try:
            report = CleanReport(str(payload["id"]), (START_TOKEN, *tokens, END_TOKEN))
            report.validate()
        except ContractError as exc:
            raise IntegrityError(f"{path}:{lineno}: bad prepared record: {exc}") from None
        points.append(DataPoint(str(payload["id"]), features, report, demographics))
    return points
