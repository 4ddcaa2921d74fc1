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
  text), ``gender``, ``age``, ``ethnicity``, and either an inline
  ``features`` array or a ``features_ref`` {blob, offset, count} pointing
  into a little-endian float32 blob (row-major); blob mode also writes a
  ``features_index.json`` manifest mapping ids to byte offsets;
* split manifest: JSON with subset id, train/val/test id lists (cut
  70:20:10, ``SPLIT_RATIOS``), seed, and the generation parameters needed
  to reconstruct the split.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .demographics import DemographicRecord
from .errors import ConfigError, ContractError, IntegrityError, SizingError
from .text import (CleanReport, RawReport, Rejected, clean_report,
                   default_standardization_map, load_reject_patterns, load_stopwords)

SPLIT_RATIOS = (0.70, 0.20, 0.10)   # train, validation, test


@dataclass(frozen=True)
class DataPoint:
    """One example: image features, cleaned report, and patient metadata."""
    id: str
    features: np.ndarray
    report: CleanReport
    demographics: DemographicRecord
    raw_text: str = ""


@dataclass(frozen=True)
class IngestRecord:
    """One line of a dataset file, before cleaning."""
    id: str
    text: str
    gender: str
    age: int
    ethnicity: str
    features: np.ndarray


@dataclass
class SplitManifest:
    subset_id: int
    train_ids: list[str]
    val_ids: list[str]
    test_ids: list[str]
    seed: int
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        groups = [set(self.train_ids), set(self.val_ids), set(self.test_ids)]
        total = sum(len(g) for g in groups)
        if len(set().union(*groups)) != total:
            raise ContractError(f"subset {self.subset_id}: split id lists overlap")

    def save(self, path) -> None:
        self.validate()
        payload = {
            "subset_id": self.subset_id,
            "train_ids": self.train_ids,
            "val_ids": self.val_ids,
            "test_ids": self.test_ids,
            "seed": self.seed,
            "params": self.params,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SplitManifest":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            manifest = cls(**payload)
        except (json.JSONDecodeError, TypeError) as exc:
            raise IntegrityError(f"unreadable split manifest {path}: {exc}") from exc
        manifest.validate()
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
        raise ContractError("k_subsets and subset_size must be positive")
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


def split(ids, seed: int, subset_id: int = 0, params: dict | None = None) -> SplitManifest:
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
    manifest = SplitManifest(
        subset_id=subset_id,
        train_ids=shuffled[:train_end],
        val_ids=shuffled[train_end:val_end],
        test_ids=shuffled[val_end:],
        seed=seed,
        params=params or {},
    )
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumSpec:
    """One demographic stratum: who the patients are and how their reports read."""
    name: str
    gender: str
    ethnicity: str
    cluster: int
    marker: str
    age_low: int = 22
    age_high: int = 88


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of the synthetic corpus generator."""
    strata: tuple[StratumSpec, ...]
    cluster_findings: tuple[str, ...]
    closing: str
    n_per_stratum: int = 150
    feature_dim: int = 24
    feature_noise: float = 0.25

    def __post_init__(self):
        if len(self.strata) < 2:
            raise ConfigError(
                "the synthetic corpus needs at least 2 demographic strata "
                "(a single stratum cannot support the fusion experiment)"
            )
        if self.n_per_stratum < 1 or self.feature_dim < 1:
            raise ConfigError("n_per_stratum and feature_dim must be positive")
        for stratum in self.strata:
            if not 0 <= stratum.cluster < len(self.cluster_findings):
                raise ConfigError(
                    f"stratum {stratum.name!r} references cluster {stratum.cluster}, "
                    f"but only {len(self.cluster_findings)} findings are defined"
                )

    def to_dict(self) -> dict:
        return {
            "strata": [vars(s) for s in self.strata],
            "cluster_findings": list(self.cluster_findings),
            "closing": self.closing,
            "n_per_stratum": self.n_per_stratum,
            "feature_dim": self.feature_dim,
            "feature_noise": self.feature_noise,
        }


_DEFAULT_FINDINGS = (
    "The lungs are clear bilaterally with no focal consolidation effusion or pneumothorax.",
    "Patchy airspace opacity involving the right lower lobe likely reflects pneumonia.",
    "Mild pulmonary interstitial edema with small layering bilateral pleural effusions.",
    "Moderate cardiomegaly with tortuous aorta but without acute pulmonary process.",
)

_DEFAULT_MARKERS = (
    ("female", "group_a", 0, "Degenerative endplate spurring noted along the thoracic spine."),
    ("male", "group_a", 0, "Surgical clips project over the right upper abdominal quadrant."),
    ("female", "group_b", 1, "Dense calcified granuloma seen near the cardiac apex."),
    ("male", "group_b", 1, "Elevated left hemidiaphragm with adjacent atelectatic banding."),
    ("female", "group_c", 2, "Tracheostomy cannula positioned midline well above carina level."),
    ("male", "group_c", 2, "Dual chamber pacemaker leads terminate appropriately within ventricle."),
    ("female", "group_d", 3, "Healed rib fractures deform the lateral costal margins."),
    ("male", "group_d", 3, "Diffuse osteopenia involving the imaged skeleton raises concern."),
)

_DEFAULT_CLOSING = "No acute osseous abnormality otherwise identified on this examination."


def default_corpus_spec(n_per_stratum: int = 150, feature_dim: int = 24) -> CorpusSpec:
    """The default synthetic profile: 4 feature clusters, each shared by two strata."""
    strata = tuple(
        StratumSpec(
            name=f"s{i:02d}",
            gender=gender,
            ethnicity=ethnicity,
            cluster=cluster,
            marker=marker,
        )
        for i, (gender, ethnicity, cluster, marker) in enumerate(_DEFAULT_MARKERS)
    )
    return CorpusSpec(
        strata=strata,
        cluster_findings=_DEFAULT_FINDINGS,
        closing=_DEFAULT_CLOSING,
        n_per_stratum=n_per_stratum,
        feature_dim=feature_dim,
    )


def synthesize_corpus(spec: CorpusSpec, seed: int) -> list[DataPoint]:
    """Generate a fully deterministic corpus of DataPoints from ``spec``.

    The records are cleaned by ``build_datapoints`` with the shipped cleaning
    resources; a template that the cleaning rejects raises ``ConfigError``.
    """
    rng = np.random.default_rng(seed)
    n_clusters = len(spec.cluster_findings)
    centers = rng.normal(0.0, 1.0, size=(n_clusters, spec.feature_dim))
    records: list[IngestRecord] = []
    for stratum in spec.strata:
        for j in range(spec.n_per_stratum):
            features = (
                centers[stratum.cluster]
                + spec.feature_noise * rng.normal(0.0, 1.0, size=spec.feature_dim)
            ).astype(np.float32)
            age = int(rng.integers(stratum.age_low, stratum.age_high + 1))
            text = f"{spec.cluster_findings[stratum.cluster]} {stratum.marker} {spec.closing}"
            records.append(IngestRecord(f"{stratum.name}-{j:04d}", text, stratum.gender, age,
                                        stratum.ethnicity, features))
    points, rejects = build_datapoints(records)
    if rejects:
        raise ConfigError(
            f"synthetic template of record {rejects[0].id!r} was rejected by the "
            f"cleaning pipeline ({rejects[0].reason}); fix the template"
        )
    return points


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def write_dataset(points, path, feature_storage: str = "inline") -> None:
    """Serialize DataPoints as a line-delimited dataset file.

    ``feature_storage`` is "inline" (features embedded in each record) or
    "blob" (features written to a sidecar float32 blob plus an id-to-offset
    manifest).
    """
    if feature_storage not in ("inline", "blob"):
        raise ConfigError(f"feature_storage must be 'inline' or 'blob', got {feature_storage!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob_chunks = []
    index: dict[str, int] = {}
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        for point in points:
            record = {
                "id": point.id,
                "report": point.raw_text or point.report.text(),
                "gender": point.demographics.gender,
                "age": point.demographics.age,
                "ethnicity": point.demographics.ethnicity,
            }
            features = np.ascontiguousarray(point.features, dtype="<f4")
            if feature_storage == "inline":
                record["features"] = [float(x) for x in features]
            else:
                raw = features.tobytes()
                record["features_ref"] = {
                    "blob": "features.bin",
                    "offset": offset,
                    "count": int(features.size),
                }
                index[point.id] = offset
                blob_chunks.append(raw)
                offset += len(raw)
            fh.write(json.dumps(record) + "\n")
    if feature_storage == "blob":
        (path.parent / "features.bin").write_bytes(b"".join(blob_chunks))
        with open(path.parent / "features_index.json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=2)
            fh.write("\n")


def load_raw_records(path) -> list[IngestRecord]:
    """Parse a dataset file, resolving blob references when present."""
    path = Path(path)
    records: list[IngestRecord] = []
    blobs: dict[str, bytes] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IntegrityError(f"{path}:{lineno}: malformed record: {exc}") from exc
            try:
                if "features" in payload:
                    features = np.asarray(payload["features"], dtype=np.float32)
                elif "features_ref" in payload:
                    ref = payload["features_ref"]
                    blob_name = ref["blob"]
                    if blob_name not in blobs:
                        blob_path = path.parent / blob_name
                        if not blob_path.exists():
                            raise IntegrityError(f"{path}:{lineno}: missing blob {blob_path}")
                        blobs[blob_name] = blob_path.read_bytes()
                    start = int(ref["offset"])
                    count = int(ref["count"])
                    raw = blobs[blob_name][start:start + 4 * count]
                    if len(raw) != 4 * count:
                        raise IntegrityError(
                            f"{path}:{lineno}: blob slice for id {payload.get('id')!r} "
                            "is out of range"
                        )
                    features = np.frombuffer(raw, dtype="<f4").astype(np.float32)
                else:
                    raise IntegrityError(
                        f"{path}:{lineno}: record has neither features nor features_ref"
                    )
                records.append(IngestRecord(
                    id=str(payload["id"]),
                    text=str(payload["report"]),
                    gender=str(payload["gender"]),
                    age=int(payload["age"]),
                    ethnicity=str(payload["ethnicity"]),
                    features=features,
                ))
            except KeyError as exc:
                raise IntegrityError(f"{path}:{lineno}: missing field {exc}") from exc
    return records


def build_datapoints(records, stopwords=None, std_map=None, reject_patterns=None,
                     min_raw_words: int = 9, expected_feature_dim: int | None = None
                     ) -> tuple[list[DataPoint], list[Rejected]]:
    """Clean ingested records into DataPoints; rejections are returned, not raised."""
    stopwords = load_stopwords() if stopwords is None else stopwords
    std_map = default_standardization_map() if std_map is None else std_map
    reject_patterns = load_reject_patterns() if reject_patterns is None else reject_patterns
    points: list[DataPoint] = []
    rejects: list[Rejected] = []
    for record in records:
        if expected_feature_dim is not None and record.features.size != expected_feature_dim:
            raise IntegrityError(
                f"record {record.id!r} has {record.features.size} features, "
                f"expected {expected_feature_dim}"
            )
        outcome = clean_report(RawReport(record.id, record.text), stopwords, std_map,
                               reject_patterns, min_raw_words=min_raw_words)
        if isinstance(outcome, Rejected):
            rejects.append(outcome)
            continue
        points.append(DataPoint(
            id=record.id,
            features=record.features,
            report=outcome,
            demographics=DemographicRecord(record.gender, record.age, record.ethnicity),
            raw_text=record.text,
        ))
    return points, rejects


def write_prepared_dataset(points, path) -> None:
    """Serialize cleaned DataPoints (tokens, not raw text) for training stages."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for point in points:
            record = {
                "id": point.id,
                "tokens": list(point.report.interior),
                "gender": point.demographics.gender,
                "age": point.demographics.age,
                "ethnicity": point.demographics.ethnicity,
                "features": [float(x) for x in np.asarray(point.features, dtype="<f4")],
            }
            fh.write(json.dumps(record) + "\n")


def load_prepared_dataset(path) -> list[DataPoint]:
    """Inverse of write_prepared_dataset; token sequences are trusted as cleaned."""
    from .text import END_TOKEN, START_TOKEN

    points: list[DataPoint] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                report = CleanReport(
                    str(payload["id"]),
                    (START_TOKEN, *payload["tokens"], END_TOKEN),
                )
                report.validate()
                points.append(DataPoint(
                    id=str(payload["id"]),
                    features=np.asarray(payload["features"], dtype=np.float32),
                    report=report,
                    demographics=DemographicRecord(
                        str(payload["gender"]), int(payload["age"]),
                        str(payload["ethnicity"]),
                    ),
                ))
            except (json.JSONDecodeError, KeyError, ContractError) as exc:
                raise IntegrityError(f"{path}:{lineno}: bad prepared record: {exc}") from exc
    return points

