"""Dataset assembly: balanced subset sampling, 70:20:10 splits, the synthetic
generator's determinism and demographic signal, and file round trips."""

import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

import cxrgen.data
from cxrgen.data import (STRATA, DataPoint, SplitManifest, build_datapoints,
                         default_corpus_spec, load_prepared_dataset, load_raw_records,
                         sample_subsets, split, synthesize_corpus, synthesize_records,
                         write_dataset, write_prepared_dataset)
from cxrgen.demographics import DemographicCodec, DemographicRecord, select_top_categories
from cxrgen.errors import ConfigError, ContractError, IntegrityError
from cxrgen.text import (CleanReport, END_TOKEN, START_TOKEN, StandardizationMap,
                         load_reject_patterns, load_stopwords)

from oracles import mixed_cleaning_records, per_record_build_datapoints, stub_feature_extractor


def make_point(pid, tokens, gender="female", age=40, ethnicity="e0", features=None):
    if features is None:
        features = np.zeros(4, dtype=np.float32)
    report = CleanReport(pid, (START_TOKEN, *tokens, END_TOKEN))
    return DataPoint(pid, np.asarray(features, dtype=np.float32), report,
                     DemographicRecord(gender, age, ethnicity))


class TestSampleSubsets:
    def test_whole_pool_exhaustive(self):
        pool = [make_point(f"p{i}", ["tok", str(i) + "x"]) for i in range(10)]
        subsets = sample_subsets(pool, 1, 10, seed=0)
        assert sorted(subsets[0]) == sorted(p.id for p in pool)

    def test_disjoint_subsets_of_exact_size(self):
        pool = [make_point(f"p{i}", ["report", f"v{i % 7}"]) for i in range(40)]
        subsets = sample_subsets(pool, 4, 9, seed=3)
        assert all(len(s) == 9 for s in subsets)
        flat = [i for s in subsets for i in s]
        assert len(set(flat)) == len(flat)

    def test_balance_rule_against_counting_oracle(self):
        """100 copies of one report + 100 unique reports, size 50: the
        duplicate may contribute at most ceil(50/101)+1 = 2 copies."""
        pool = [make_point(f"dup{i}", ["same", "report", "words"]) for i in range(100)]
        pool += [make_point(f"u{i}", ["unique", f"w{i}"]) for i in range(100)]
        subsets = sample_subsets(pool, 1, 50, seed=1)
        dup_count = sum(1 for pid in subsets[0] if pid.startswith("dup"))
        assert dup_count <= 2

    def test_duplicates_spread_across_subsets(self):
        pool = [make_point(f"dup{i}", ["same", "report"]) for i in range(12)]
        pool += [make_point(f"u{i}", ["unique", f"w{i}"]) for i in range(12)]
        subsets = sample_subsets(pool, 3, 8, seed=2)
        for subset in subsets:
            dup_count = sum(1 for pid in subset if pid.startswith("dup"))
            assert dup_count == 4

    def test_deterministic_under_seed(self):
        pool = [make_point(f"p{i}", ["r", f"v{i % 5}"]) for i in range(30)]
        a = sample_subsets(pool, 2, 10, seed=9)
        b = sample_subsets(pool, 2, 10, seed=9)
        assert a == b

    def test_insufficient_pool(self):
        pool = [make_point("p0", ["a", "b"])]
        with pytest.raises(ConfigError):
            sample_subsets(pool, 2, 1, seed=0)

    def test_production_scale_four_disjoint_subsets_of_4500(self):
        """4 x 4500 drawn from a 40700-example pool with heavy duplication."""
        rng = np.random.default_rng(0)
        pool = []
        for i in range(40700):
            # ~500 duplicate classes of very uneven sizes
            cls = int(rng.integers(0, 500) ** 1.3) % 500
            pool.append(make_point(f"p{i}", ["report", f"class{cls}"]))
        subsets = sample_subsets(pool, 4, 4500, seed=7)
        assert [len(s) for s in subsets] == [4500] * 4
        flat = [pid for s in subsets for pid in s]
        assert len(set(flat)) == 18000


class TestSplit:
    def test_ratio_4500(self):
        manifest = split([f"i{k}" for k in range(4500)], seed=0)
        assert (len(manifest.train_ids), len(manifest.val_ids),
                len(manifest.test_ids)) == (3150, 900, 450)

    def test_ratio_10(self):
        manifest = split([f"i{k}" for k in range(10)], seed=0)
        assert (len(manifest.train_ids), len(manifest.val_ids),
                len(manifest.test_ids)) == (7, 2, 1)

    def test_sizes_within_one_of_exact(self):
        for n in (3, 9, 17, 101, 997):
            manifest = split([f"i{k}" for k in range(n)], seed=5)
            for count, ratio in zip((len(manifest.train_ids), len(manifest.val_ids),
                                     len(manifest.test_ids)), (0.7, 0.2, 0.1)):
                assert abs(count - ratio * n) <= 1.0

    def test_deterministic_and_disjoint(self):
        ids = [f"i{k}" for k in range(57)]
        a = split(ids, seed=11)
        b = split(ids, seed=11)
        assert (a.train_ids, a.val_ids, a.test_ids) == (b.train_ids, b.val_ids, b.test_ids)
        all_ids = a.train_ids + a.val_ids + a.test_ids
        assert sorted(all_ids) == sorted(ids)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            split([], seed=0)

    def test_manifest_round_trip(self, tmp_path):
        manifest = split([f"i{k}" for k in range(10)], seed=1)
        path = tmp_path / "m.json"
        manifest.save(path)
        digest = hashlib.sha256()
        again = SplitManifest.load(path, digest)
        assert again == manifest
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_manifest_holds_only_the_id_lists(self, tmp_path):
        split([f"i{k}" for k in range(10)], seed=1).save(tmp_path / "m.json")
        assert list(json.loads((tmp_path / "m.json").read_text())) == [
            "train_ids", "val_ids", "test_ids"]

    @pytest.mark.parametrize("key, value", [("subset_id", 3), ("seed", 1),
                                            ("params", {"source": "d.jsonl"})])
    def test_manifest_with_a_key_beside_the_id_lists_is_rejected(self, tmp_path, key, value):
        """The ``subset_id``, ``seed`` and ``params`` that manifests once held
        are unknown keys like any other."""
        manifest = split([f"i{k}" for k in range(10)], seed=1)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**asdict(manifest), key: value}))
        with pytest.raises(IntegrityError, match=f"not a split manifest.*'{key}'"):
            SplitManifest.load(path, None)

    @pytest.mark.parametrize("ids", ["ab", {"a": 1}, {"i0": 0}, [1, 2], [["i0"]], None])
    def test_manifest_id_list_must_be_a_list_of_strings(self, tmp_path, ids):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"train_ids": ids, "val_ids": ["v"], "test_ids": []}))
        with pytest.raises(IntegrityError, match="not a split manifest"):
            SplitManifest.load(path, None)

    def test_manifest_overlap_rejected(self):
        bad = SplitManifest(["a", "b"], ["b"], ["c"])
        with pytest.raises(ContractError):
            bad.validate()


class TestSynthesizeCorpus:
    def test_counts_exact(self):
        points = synthesize_corpus(default_corpus_spec(n_per_stratum=5), seed=0)
        assert len(points) == 5 * len(STRATA)
        for i in range(len(STRATA)):
            assert sum(1 for p in points if p.id.startswith(f"s{i:02d}-")) == 5

    def test_rejected_template_raises(self, monkeypatch):
        """A template the cleaning rejects (here: a prior-study reference) is
        a spec error, not a silently smaller corpus."""
        monkeypatch.setattr(cxrgen.data, "CLOSING", "No interval change since the prior study.")
        with pytest.raises(ConfigError, match="s00-0000.*prior_reference"):
            synthesize_corpus(default_corpus_spec(n_per_stratum=2), seed=0)

    def test_deterministic_serialization(self, tmp_path):
        spec = default_corpus_spec(n_per_stratum=4)
        for name in ("a", "b"):
            records = synthesize_records(spec, seed=7)
            write_dataset(records, tmp_path / name / "dataset.jsonl")
        assert ((tmp_path / "a" / "dataset.jsonl").read_bytes()
                == (tmp_path / "b" / "dataset.jsonl").read_bytes())

    def test_different_seeds_differ(self):
        spec = default_corpus_spec(n_per_stratum=3)
        a = synthesize_corpus(spec, seed=1)
        b = synthesize_corpus(spec, seed=2)
        assert any(not np.array_equal(x.features, y.features) for x, y in zip(a, b))

    def test_reports_pass_cleaning_invariants(self):
        points = synthesize_corpus(default_corpus_spec(n_per_stratum=2), seed=0)
        for point in points:
            point.report.validate()
            assert len(point.report.interior) >= 9

    def test_linear_probe_recovers_stratum_from_demographics(self):
        """The demographic signal exists by construction: a least-squares
        linear probe from encoded demographics to the stratum label is
        100% accurate on the default spec."""
        spec = default_corpus_spec(n_per_stratum=20)
        points = synthesize_corpus(spec, seed=13)
        categories, _ = select_top_categories([p.demographics for p in points], k=5)
        codec = DemographicCodec(tuple(categories))
        names = [f"s{i:02d}" for i in range(len(STRATA))]
        x = np.stack([codec.encode(p.demographics) for p in points])
        x = np.hstack([x, np.ones((len(points), 1))])
        labels = np.asarray([names.index(p.id.split("-")[0]) for p in points])
        targets = np.eye(len(names))[labels]
        weights, *_ = np.linalg.lstsq(x, targets, rcond=None)
        predictions = (x @ weights).argmax(axis=1)
        assert (predictions == labels).mean() == 1.0

    def test_features_cluster_by_stratum_cluster(self):
        spec = default_corpus_spec(n_per_stratum=10)
        points = synthesize_corpus(spec, seed=3)
        by_cluster = {}
        for point in points:
            cluster = STRATA[int(point.id[1:3])][2]
            by_cluster.setdefault(cluster, []).append(point.features)
        centers = {c: np.mean(feats, axis=0) for c, feats in by_cluster.items()}
        for c, feats in by_cluster.items():
            for f in feats:
                own = np.linalg.norm(f - centers[c])
                others = min(np.linalg.norm(f - centers[o]) for o in centers if o != c)
                assert own < others


class TestSerialization:
    def test_inline_round_trip(self, tmp_path):
        spec = default_corpus_spec(n_per_stratum=2)
        written = synthesize_records(spec, seed=5)
        path = tmp_path / "dataset.jsonl"
        write_dataset(written, path)
        records = load_raw_records(path, None)
        assert [r.id for r in records] == [p.id for p in synthesize_corpus(spec, seed=5)]
        for record, original in zip(records, written, strict=True):
            np.testing.assert_array_equal(record.features, original.features)
            assert record.text == original.text
            assert record.demographics == original.demographics

    def test_build_datapoints_rejects_and_keeps(self, tmp_path):
        written = synthesize_records(default_corpus_spec(n_per_stratum=2), seed=5)
        path = tmp_path / "dataset.jsonl"
        write_dataset(written, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "id": "short", "report": "Normal chest.", "gender": "male",
                "age": 50, "ethnicity": "group_a",
                "features": [0.0] * written[0].features.size,
            }) + "\n")
        records = load_raw_records(path, None)
        kept, rejects = build_datapoints(records)
        assert len(kept) == len(written)
        assert len(rejects) == 1 and rejects[0].reason == "too_short"

    def test_malformed_record_is_integrity_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "report": "hello"}\n')
        with pytest.raises(IntegrityError):
            load_raw_records(path, None)

    def test_feature_dim_mismatch_is_integrity_error(self, tmp_path):
        """The odd record out is the one named, against the first record's line."""
        records = synthesize_records(default_corpus_spec(n_per_stratum=1), seed=0)
        path = tmp_path / "dataset.jsonl"
        write_dataset(records, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["features"].pop()
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match=r"dataset.jsonl:3: 23 features, but line 1 has 24"):
            load_raw_records(path, None)

    def test_prepared_round_trip(self, tmp_path):
        points = synthesize_corpus(default_corpus_spec(n_per_stratum=2), seed=5)
        path = tmp_path / "cleaned.jsonl"
        write_prepared_dataset(points, path)
        again = load_prepared_dataset(path, None)
        assert [p.id for p in again] == [p.id for p in points]
        for a, b in zip(again, points):
            assert a.report.tokens == b.report.tokens
            np.testing.assert_array_equal(a.features, b.features)
            assert a.demographics == b.demographics


def test_stub_feature_extractor_deterministic():
    a = stub_feature_extractor([1.0, 2.0, 3.0], feature_dim=8, seed=4)
    b = stub_feature_extractor([1.0, 2.0, 3.0], feature_dim=8, seed=4)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (8,)
    c = stub_feature_extractor([1.0, 2.0, 4.0], feature_dim=8, seed=4)
    assert not np.array_equal(a, c)
    with pytest.raises(ContractError):
        stub_feature_extractor([], feature_dim=4)


def per_record_reference(records):
    return per_record_build_datapoints(records, load_stopwords(), StandardizationMap.from_file(),
                                       load_reject_patterns())


def count_cleanings(monkeypatch):
    """Patch ``data.clean_report`` to count its calls per raw text."""
    calls: dict[str, int] = {}
    clean = cxrgen.data.clean_report

    def counting(report_id, text, *args, **kwargs):
        calls[text] = calls.get(text, 0) + 1
        return clean(report_id, text, *args, **kwargs)

    monkeypatch.setattr(cxrgen.data, "clean_report", counting)
    return calls


class TestCleanEachTextOnce:
    def test_repeated_texts_match_per_record_reference(self):
        """Repeated accepted texts and repeated texts of every reject reason
        give the points and rejects of cleaning every record, ids and order
        kept."""
        records = mixed_cleaning_records()
        points, rejects = build_datapoints(records)
        expected_points, expected_rejects = per_record_reference(records)
        assert points == expected_points and rejects == expected_rejects
        assert ({r.reason for r in rejects}
                == {"too_short", "prior_reference", "empty_after_cleaning", "malformed_token"})
        assert sorted([p.id for p in points] + [r.id for r in rejects]) == [r.id for r in records]
        assert all(p.report.id == p.id for p in points)

    def test_each_distinct_text_cleaned_once(self, monkeypatch):
        records = mixed_cleaning_records()
        calls = count_cleanings(monkeypatch)
        build_datapoints(records)
        assert calls == {r.text: 1 for r in records}
        assert len(calls) < len(records)

    def test_all_distinct_texts_unchanged(self, monkeypatch):
        """Without repeats every record is cleaned, as before."""
        base = mixed_cleaning_records()
        records = [replace(r, text=f"{r.text} Marker {'abcdefghijklmnop'[i]}.")
                   for i, r in enumerate(base)]
        expected = per_record_reference(records)
        calls = count_cleanings(monkeypatch)
        assert build_datapoints(records) == expected
        assert calls == {r.text: 1 for r in records} and len(calls) == len(records)
