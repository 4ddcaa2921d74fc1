"""End-to-end command surface: each stage's output feeds the next, outputs
are deterministic, and error classes map to distinct exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.checkpoint import load_checkpoint, read_manifest, save_checkpoint
from cxrgen.cli import main
from cxrgen.metrics import EvaluationReport
from cxrgen.model import init_parameters
from cxrgen.text import END_ID, UNK_ID


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth-data -> prepare-data -> train -> generate once, share outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    prep = root / "prep"
    run = root / "run"
    assert main(["synth-data", "--out", str(corpus), "--seed", "7",
                 "--n-per-stratum", "4", "--feature-dim", "8"]) == 0
    assert main(["prepare-data", "--data", str(corpus / "dataset.jsonl"),
                 "--out", str(prep), "--seed", "3", "--subsets", "2",
                 "--subset-size", "12", "--vocab-cap", "64"]) == 0
    assert main(["train", "--data", str(prep), "--subset", "0", "--out", str(run),
                 "--d-model", "16", "--n-heads", "2", "--max-len", "24",
                 "--dropout", "0.0", "--batch-size", "8", "--learning-rate", "0.01",
                 "--epochs", "3", "--seed", "1"]) == 0
    hyp = root / "hyp.txt"
    ref = root / "ref.txt"
    assert main(["generate", "--checkpoint", str(run / "best"), "--data", str(prep),
                 "--subset", "0", "--split", "test", "--out", str(hyp),
                 "--refs-out", str(ref), "--temperature", "0", "--seed", "1"]) == 0
    return {"root": root, "corpus": corpus, "prep": prep, "run": run,
            "hyp": hyp, "ref": ref}


class TestSynthData:
    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["synth-data", "--out", str(tmp_path / name), "--seed", "7",
                         "--n-per-stratum", "2", "--feature-dim", "6"]) == 0
        assert ((tmp_path / "a" / "dataset.jsonl").read_bytes()
                == (tmp_path / "b" / "dataset.jsonl").read_bytes())
        assert ((tmp_path / "a" / "provenance.json").read_bytes()
                == (tmp_path / "b" / "provenance.json").read_bytes())
        # the generator's draw order and the file layout, pinned to the byte
        digest = hashlib.sha256((tmp_path / "a" / "dataset.jsonl").read_bytes()).hexdigest()
        assert digest == "b2a08c9ad9f918c928227e2b98719125e1cf996918faeab256a3fc2a7b25f942"
        provenance = json.loads((tmp_path / "a" / "provenance.json").read_text())
        assert provenance["options"]["spec"] == {"n_per_stratum": 2, "feature_dim": 6}

    def test_config_file_supplies_options(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n-per-stratum": 2, "feature-dim": 6}))
        assert main(["synth-data", "--out", str(tmp_path / "out"), "--seed", "2",
                     "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 16  # 8 strata x 2

    def test_explicit_flag_beats_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "n-per-stratum": 2, "feature-dim": 6}))
        for name, flags in (("flag", ["--seed", "0"]), ("file", [])):
            assert main(["synth-data", "--out", str(tmp_path / name),
                         "--config", str(config), *flags]) == 0
        seeds = [json.loads((tmp_path / name / "provenance.json").read_text())
                 ["options"]["seed"] for name in ("flag", "file")]
        assert seeds == [0, 5]

    def test_config_equals_path_form(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "n-per-stratum": 2, "feature-dim": 6}))
        assert main(["synth-data", f"--config={config}", "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "dataset.jsonl").read_text().splitlines()) == 16
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert provenance["options"]["seed"] == 5

    @pytest.mark.parametrize("command, values", [
        ("synth-data", {"seed": 1.5}), ("synth-data", {"seed": True}),
        ("synth-data", {"seed": None}),
        ("generate", {"checkpoint": "ckpt", "data": "prep", "split": "holdout"}),
        ("synth-data", {"n": 2})],
        ids=["float-for-int", "bool", "null", "bad-choice", "abbreviated-key"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, command, values):
        """A config value is parsed like a flag: its type, choices and name are
        checked, and a bad one exits 2 with a message, not a traceback."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        assert main([command, "--out", str(tmp_path / "out"),
                     "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_required_option_may_come_from_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "out"), "n-per-stratum": 2,
                                      "feature-dim": 6}))
        assert main(["synth-data", "--config", str(config)]) == 0
        assert len((tmp_path / "out" / "dataset.jsonl").read_text().splitlines()) == 16

    def test_missing_required_option_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n-per-stratum": 2}))
        for argv in (["synth-data"], ["synth-data", "--config", str(config)]):
            assert main(argv) == 2
            assert "required: --out" in capsys.readouterr().err
        assert main(["compare", "--a", "x.json"]) == 2
        assert "required: --b" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        for key in ("bogus-option", "func", "command"):
            config.write_text(json.dumps({key: 1}))
            assert main(["synth-data", "--out", str(tmp_path / "out"),
                         "--config", str(config)]) == 2


class TestPrepareData:
    def test_outputs_present(self, pipeline):
        prep = pipeline["prep"]
        for name in ("cleaned.jsonl", "vocab.txt", "demographics.json",
                     "rejects.jsonl", "provenance.json"):
            assert (prep / name).exists()
        assert (prep / "splits" / "subset_0.json").exists()
        assert (prep / "splits" / "subset_1.json").exists()

    def test_split_sizes_follow_ratio(self, pipeline):
        manifest = json.loads((pipeline["prep"] / "splits" / "subset_0.json").read_text())
        sizes = (len(manifest["train_ids"]), len(manifest["val_ids"]),
                 len(manifest["test_ids"]))
        assert sum(sizes) == 12
        assert sizes[0] >= sizes[1] >= sizes[2] >= 1

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["prepare-data", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_oversized_subsets_is_usage_error(self, pipeline, tmp_path):
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(tmp_path / "out"), "--subsets", "9",
                     "--subset-size", "1000"]) == 2

    @pytest.mark.parametrize("option, value", [
        ("--subsets", "0"), ("--subsets", "-1"), ("--top-ethnicities", "0"),
        ("--subset-size", "-1")])
    def test_out_of_range_count_is_usage_error(self, pipeline, tmp_path, capsys,
                                               option, value):
        """Checked by the parser, so nothing is written under --out."""
        out = tmp_path / "out"
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(out), option, value]) == 2
        err = capsys.readouterr().err
        assert f"argument {option}" in err and "Traceback" not in err
        assert not out.exists()

    def test_corrupt_dataset_is_integrity_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{this is not json}\n")
        assert main(["prepare-data", "--data", str(bad),
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("change, message", [
        ({"features": "abc"}, "features must be a non-empty flat list of numbers"),
        ({"features": [1.0, "x"]}, "features must be a non-empty flat list of numbers"),
        ({"features": [[1.0] * 8]}, "features must be a non-empty flat list of numbers"),
        ({"features": [float("nan")] * 8}, "a feature is not finite in float32"),
        ({"features": [1e39] * 8}, "a feature is not finite in float32"),
        ({"age": "old"}, "age must be an integer, got 'old'"),
        ({"gender": "other"}, "gender must be female or male, got 'other'"),
        ({"id": "s00-0000"}, "id 's00-0000' repeats line 1"),
        ({"features": None}, "missing field 'features'"),
    ], ids=["string", "non-number", "nested", "nan", "float32-overflow", "age", "gender",
            "repeated-id", "features-ref"])
    def test_malformed_record_is_integrity_error(self, pipeline, tmp_path, capsys,
                                                 change, message):
        """Exit 3 naming the file and line, not a traceback or a numeric failure;
        a record in the retired blob layout (``features_ref``) lacks features."""
        lines = (pipeline["corpus"] / "dataset.jsonl").read_text().splitlines()
        record = {**json.loads(lines[1]), **change}
        if record["features"] is None:
            del record["features"]
            record["features_ref"] = {"blob": "features.bin", "offset": 32, "count": 8}
        lines[1] = json.dumps(record)
        bad = tmp_path / "dataset.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["prepare-data", "--data", str(bad), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{bad}:2: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestTrainGenerate:
    def test_artifacts_present(self, pipeline):
        run = pipeline["run"]
        assert (run / "best" / "manifest.json").exists()
        assert (run / "best" / "params.bin").exists()
        assert (run / "trainlog.jsonl").exists()
        assert (run / "provenance.json").exists()
        records = [json.loads(l) for l in (run / "trainlog.jsonl").read_text().splitlines()]
        assert len(records) == 3

    def test_generate_is_deterministic(self, pipeline, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        for out in (out_a, out_b):
            assert main(["generate", "--checkpoint", str(pipeline["run"] / "best"),
                         "--data", str(pipeline["prep"]), "--subset", "0",
                         "--split", "test", "--out", str(out),
                         "--temperature", "0", "--seed", "1"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() == pipeline["hyp"].read_bytes()

    def test_generated_lines_match_split_size(self, pipeline):
        manifest = json.loads((pipeline["prep"] / "splits" / "subset_0.json").read_text())
        lines = pipeline["hyp"].read_text().splitlines()
        assert len(lines) == len(manifest["test_ids"])

    def test_baseline_variant_trains(self, pipeline, tmp_path):
        run = tmp_path / "baseline"
        assert main(["train", "--data", str(pipeline["prep"]), "--subset", "1",
                     "--out", str(run), "--demographics", "none",
                     "--d-model", "16", "--n-heads", "2", "--max-len", "24",
                     "--dropout", "0.0", "--batch-size", "8",
                     "--learning-rate", "0.01", "--epochs", "2", "--seed", "4"]) == 0
        manifest = json.loads((run / "best" / "manifest.json").read_text())
        assert manifest["config"]["demographic_dim"] == 0
        names = [t["name"] for t in manifest["tensors"]]
        assert not any(n.startswith(("semantic.", "fusion.")) for n in names)

    def test_demographic_subset_variant_trains(self, pipeline, tmp_path):
        run = tmp_path / "gender_eth"
        assert main(["train", "--data", str(pipeline["prep"]), "--subset", "1",
                     "--out", str(run), "--demographics", "ethnicity,gender",
                     "--d-model", "16", "--n-heads", "2", "--max-len", "24",
                     "--dropout", "0.0", "--batch-size", "8",
                     "--learning-rate", "0.01", "--epochs", "2", "--seed", "4"]) == 0
        manifest = json.loads((run / "best" / "manifest.json").read_text())
        categories = json.loads((pipeline["prep"] / "demographics.json").read_text())
        expected_dim = 1 + len(categories["categories"])
        assert manifest["config"]["demographic_dim"] == expected_dim

    def test_ethnicity_outside_top_k_trains_and_generates(self, tmp_path):
        """With fewer categories than ethnicities, the others encode as the
        all-zero ethnicity slice in train and, through the checkpoint's
        codec, in generate."""
        corpus, prep, run = tmp_path / "corpus", tmp_path / "prep", tmp_path / "run"
        assert main(["synth-data", "--out", str(corpus), "--n-per-stratum", "20",
                     "--feature-dim", "8"]) == 0
        assert main(["prepare-data", "--data", str(corpus / "dataset.jsonl"),
                     "--out", str(prep), "--top-ethnicities", "2", "--vocab-cap", "64"]) == 0
        categories = json.loads((prep / "demographics.json").read_text())["categories"]
        assert len(categories) == 2
        assert main(["train", "--data", str(prep), "--out", str(run), "--d-model", "16",
                     "--n-heads", "2", "--max-len", "24", "--batch-size", "32",
                     "--epochs", "1"]) == 0
        codec = json.loads((run / "best" / "manifest.json").read_text())["extra"]["codec"]
        assert codec["categories"] == categories and "strict" not in codec
        assert main(["generate", "--checkpoint", str(run / "best"), "--data", str(prep),
                     "--out", str(tmp_path / "hyp.txt")]) == 0

    def test_corrupted_checkpoint_is_integrity_error(self, pipeline, tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["run"] / "best", broken)
        blob = bytearray((broken / "params.bin").read_bytes())
        blob[17] ^= 0x01
        (broken / "params.bin").write_bytes(bytes(blob))
        assert main(["generate", "--checkpoint", str(broken),
                     "--data", str(pipeline["prep"]), "--subset", "0",
                     "--split", "test", "--out", str(tmp_path / "h.txt"),
                     "--temperature", "0", "--seed", "1"]) == 3

    def test_manifest_that_is_not_an_object_is_integrity_error(self, pipeline, tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["run"] / "best", broken)
        (broken / "manifest.json").write_text("[1]")
        assert main(["generate", "--checkpoint", str(broken),
                     "--data", str(pipeline["prep"]), "--subset", "0",
                     "--split", "test", "--out", str(tmp_path / "h.txt"),
                     "--temperature", "0", "--seed", "1"]) == 3

    def test_provenance_records_generation_statistics(self, pipeline):
        stats = json.loads((pipeline["root"] / "provenance.json").read_text())["generation"]
        lines = pipeline["hyp"].read_text().splitlines()
        assert stats["reports"] == len(lines)
        assert stats["empty_reports"] == lines.count("")
        assert stats["mean_length"] == stats["tokens"] / stats["reports"]
        # markers and pads are emitted but not written out
        assert stats["tokens"] >= sum(len(line.split()) for line in lines)
        ended = round(stats["end_marker_rate"] * stats["reports"])
        assert ended + stats["hit_max_len"] == stats["reports"]
        assert stats["unk_emitted"] == sum(line.split().count("<unk>") for line in lines)

    def test_generation_statistics(self):
        from cxrgen.cli import _generation_stats
        generated = [[5, 6, END_ID], [UNK_ID, 4, UNK_ID, 5], [END_ID], [4, 5, 6, END_ID]]
        assert _generation_stats(generated, max_len=4) == {
            "reports": 4, "tokens": 12, "mean_length": 3.0, "end_marker_rate": 0.75,
            "hit_max_len": 1, "unk_emitted": 2}

    def test_no_finite_validation_loss_is_numeric_error(self, pipeline, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr("cxrgen.training.evaluate_loss", lambda *a, **k: float("nan"))
        run = tmp_path / "nan"
        assert main(["train", "--data", str(pipeline["prep"]), "--subset", "0",
                     "--out", str(run), "--d-model", "16", "--n-heads", "2",
                     "--max-len", "24", "--batch-size", "8", "--epochs", "2"]) == 4
        assert not (run / "best").exists()

    def test_unknown_demographics_field_is_usage_error(self, pipeline, tmp_path):
        assert main(["train", "--data", str(pipeline["prep"]), "--subset", "0",
                     "--out", str(tmp_path / "x"), "--demographics", "weight"]) == 2

    def test_split_naming_an_absent_id_is_integrity_error(self, pipeline, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        split_path = prep / "splits" / "subset_0.json"
        manifest = json.loads(split_path.read_text())
        manifest["train_ids"][0] = "absent-train-id"
        manifest["test_ids"][0] = "absent-test-id"
        split_path.write_text(json.dumps(manifest))
        assert main(["train", "--data", str(prep), "--subset", "0",
                     "--out", str(tmp_path / "run"), "--d-model", "16", "--n-heads", "2",
                     "--max-len", "24", "--epochs", "1"]) == 3
        assert "absent-train-id" in capsys.readouterr().err
        assert main(["generate", "--checkpoint", str(pipeline["run"] / "best"),
                     "--data", str(prep), "--subset", "0", "--split", "test",
                     "--out", str(tmp_path / "hyp.txt")]) == 3
        assert "absent-test-id" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "hyp.txt").exists()


    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf", "-inf"])
    def test_bad_temperature_is_usage_error(self, pipeline, tmp_path, capsys, value):
        """Rejected by argparse, before the checkpoint is read: a corrupt
        checkpoint would exit 3."""
        bad = tmp_path / "ckpt"
        shutil.copytree(pipeline["run"] / "best", bad)
        (bad / "params.bin").write_bytes(b"corrupt")
        assert main(["generate", "--checkpoint", str(bad), "--data", str(pipeline["prep"]),
                     "--out", str(tmp_path / "hyp.txt"), f"--temperature={value}"]) == 2
        assert "argument --temperature" in capsys.readouterr().err
        assert not (tmp_path / "hyp.txt").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_learning_rate_is_usage_error(self, pipeline, tmp_path, capsys, value):
        run = tmp_path / "run"
        assert main(["train", "--data", str(pipeline["prep"]), "--out", str(run),
                     "--d-model", "16", "--n-heads", "2", "--epochs", "1",
                     f"--learning-rate={value}"]) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not run.exists()

    def test_end_first_checkpoint_generates_empty_reports_that_evaluate_scores(
            self, pipeline, tmp_path):
        """A model that emits <end> first writes empty lines; evaluate scores
        them (BLEU 0) instead of rejecting the file."""
        params, cfg = load_checkpoint(pipeline["run"] / "best")
        params["classifier.b"].data[END_ID] += 50.0
        end_first = tmp_path / "end_first"
        save_checkpoint(params, cfg, end_first,
                        extra=read_manifest(pipeline["run"] / "best")["extra"])
        hyp = tmp_path / "gen" / "hyp.txt"
        assert main(["generate", "--checkpoint", str(end_first), "--data", str(pipeline["prep"]),
                     "--subset", "0", "--split", "test", "--out", str(hyp),
                     "--temperature", "0", "--seed", "1"]) == 0
        lines = hyp.read_text().splitlines()
        assert lines and all(line == "" for line in lines)
        stats = json.loads((hyp.parent / "provenance.json").read_text())["generation"]
        assert stats["empty_reports"] == stats["reports"] == len(lines)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--hypotheses", str(hyp), "--references", str(pipeline["ref"]),
                     "--out", str(out)]) == 0
        report = EvaluationReport.from_json(out)
        assert (report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4) == (0.0,) * 4

    @pytest.mark.parametrize("field, value, message", [
        ("age", "x", "age must be an integer, got 'x'"),
        ("features", [0.0] * 7, "7 features, but line 1 has 8")])
    def test_malformed_prepared_record_is_integrity_error(self, pipeline, tmp_path, capsys,
                                                          field, value, message):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        lines = (prep / "cleaned.jsonl").read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: value})
        (prep / "cleaned.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(prep), "--out", str(tmp_path / "run"),
                     "--d-model", "16", "--n-heads", "2", "--epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert f"cleaned.jsonl:3: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["categories", "age_min", "age_max"])
    def test_demographics_manifest_missing_key_is_integrity_error(
            self, pipeline, tmp_path, capsys, key):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        payload = json.loads((prep / "demographics.json").read_text())
        del payload[key]
        (prep / "demographics.json").write_text(json.dumps(payload))
        assert main(["train", "--data", str(prep), "--out", str(tmp_path / "run"),
                     "--d-model", "16", "--n-heads", "2", "--epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert f"missing key {key!r}" in err and "Traceback" not in err

    def test_generate_on_data_of_another_width_is_usage_error(self, pipeline, tmp_path,
                                                              capsys):
        """A 24-wide checkpoint on a 16-wide prepared dataset exits 2 naming both."""
        corpus, prep = tmp_path / "corpus", tmp_path / "prep"
        assert main(["synth-data", "--out", str(corpus), "--n-per-stratum", "2",
                     "--feature-dim", "16"]) == 0
        assert main(["prepare-data", "--data", str(corpus / "dataset.jsonl"),
                     "--out", str(prep), "--vocab-cap", "64"]) == 0
        _, cfg = load_checkpoint(pipeline["run"] / "best")
        wide = dataclasses.replace(cfg, feature_dim=24)
        save_checkpoint(init_parameters(wide, seed=0), wide, tmp_path / "ckpt",
                        extra=read_manifest(pipeline["run"] / "best")["extra"])
        hyp = tmp_path / "hyp.txt"
        assert main(["generate", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(prep),
                     "--out", str(hyp)]) == 2
        err = capsys.readouterr().err
        assert "16-wide features" in err and "takes 24" in err and "Traceback" not in err
        assert not hyp.exists()

    def test_checkpoint_with_a_stored_strict_flag_generates(self, pipeline, tmp_path):
        """Codecs once stored a ``strict`` key; such a checkpoint still loads
        and decodes exactly as without it."""
        params, cfg = load_checkpoint(pipeline["run"] / "best")
        extra = read_manifest(pipeline["run"] / "best")["extra"]
        extra["codec"]["strict"] = True
        save_checkpoint(params, cfg, tmp_path / "ckpt", extra=extra)
        hyp = tmp_path / "hyp.txt"
        assert main(["generate", "--checkpoint", str(tmp_path / "ckpt"),
                     "--data", str(pipeline["prep"]), "--subset", "0", "--split", "test",
                     "--out", str(hyp), "--temperature", "0", "--seed", "1"]) == 0
        assert hyp.read_bytes() == pipeline["hyp"].read_bytes()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_grad_clip_is_usage_error(self, pipeline, tmp_path, capsys, value):
        run = tmp_path / "run"
        assert main(["train", "--data", str(pipeline["prep"]), "--out", str(run),
                     "--d-model", "16", "--n-heads", "2", "--epochs", "1",
                     f"--grad-clip={value}"]) == 2
        assert "grad_clip" in capsys.readouterr().err
        assert not run.exists()

    def test_negative_seed_is_usage_error(self, pipeline, tmp_path, capsys):
        assert main(["synth-data", "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvaluateCompare:
    def test_identity_corpus_scores_one(self, pipeline, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["evaluate", "--hypotheses", str(pipeline["ref"]),
                     "--references", str(pipeline["ref"]), "--out", str(out)]) == 0
        report = EvaluationReport.from_json(out)
        assert (report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4) \
            == (1.0, 1.0, 1.0, 1.0)
        assert report.p_embed is None

    def test_evaluate_with_embedding_table(self, pipeline, tmp_path):
        tokens = sorted({t for line in pipeline["ref"].read_text().splitlines()
                         for t in line.split()})
        table = tmp_path / "emb.txt"
        rows = []
        for i, token in enumerate(tokens):
            vec = np.zeros(len(tokens))
            vec[i] = 1.0
            rows.append(token + " " + " ".join(str(x) for x in vec))
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        assert main(["evaluate", "--hypotheses", str(pipeline["ref"]),
                     "--references", str(pipeline["ref"]),
                     "--embeddings", str(table), "--out", str(out)]) == 0
        report = EvaluationReport.from_json(out)
        assert report.f1_embed == 1.0
        assert "static embedding" in report.note

    def test_empty_reference_line_is_integrity_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        n_lines = len(pipeline["ref"].read_text().splitlines())
        bad.write_text("\n" * n_lines)
        assert main(["evaluate", "--hypotheses", str(pipeline["ref"]),
                     "--references", str(bad)]) == 3
        assert "empty reference" in capsys.readouterr().err

    def test_empty_hypothesis_lines_are_scored(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        n_lines = len(pipeline["ref"].read_text().splitlines())
        empty.write_text("\n" * n_lines)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--hypotheses", str(empty),
                     "--references", str(pipeline["ref"]), "--out", str(out)]) == 0
        report = EvaluationReport.from_json(out)
        assert (report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4) == (0.0,) * 4

    @pytest.mark.parametrize("line", ["a 1.0 x", "a nan 1"], ids=["not-a-number", "nan"])
    def test_bad_embedding_component_is_usage_error(self, tmp_path, capsys, line):
        text = tmp_path / "text.txt"
        text.write_text("a b\n")
        table = tmp_path / "emb.txt"
        table.write_text("b 0.5 0.5\n" + line + "\n")
        assert main(["evaluate", "--hypotheses", str(text), "--references", str(text),
                     "--embeddings", str(table)]) == 2
        err = capsys.readouterr().err
        assert f"error: {table}:2:" in err and "Traceback" not in err

    def test_token_missing_from_table_is_usage_error(self, tmp_path, capsys):
        text = tmp_path / "text.txt"
        text.write_text("a zebra\n")
        table = tmp_path / "emb.txt"
        table.write_text("a 1 0\nb 0 1\n")
        assert main(["evaluate", "--hypotheses", str(text), "--references", str(text),
                     "--embeddings", str(table), "--unknown-policy", "error"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'zebra'" in err and "Traceback" not in err

    def test_repeated_embedding_token_is_usage_error(self, tmp_path, capsys):
        text = tmp_path / "text.txt"
        text.write_text("a b\n")
        table = tmp_path / "emb.txt"
        table.write_text("a 1 0\nb 0 1\na 0 1\n")
        assert main(["evaluate", "--hypotheses", str(text), "--references", str(text),
                     "--embeddings", str(table)]) == 2
        assert f"error: {table}:3: token 'a' repeats line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--hypotheses", "--references", "--embeddings"])
    @pytest.mark.parametrize("content, code", [(None, 2), (b"\xff\xfea b\n", 3)],
                             ids=["directory", "not-utf8"])
    def test_unreadable_input_exits_without_traceback(self, tmp_path, capsys, option,
                                                      content, code):
        """A path that cannot be opened as a file exits 2; bytes that are not
        UTF-8 exit 3."""
        paths = {"--hypotheses": tmp_path / "hyp.txt", "--references": tmp_path / "ref.txt",
                 "--embeddings": tmp_path / "emb.txt"}
        paths["--hypotheses"].write_text("a b\n")
        paths["--references"].write_text("a b\n")
        paths["--embeddings"].write_text("a 1 0\nb 0 1\n")
        if content is None:
            paths[option] = tmp_path
        else:
            paths[option].write_bytes(content)
        assert main(["evaluate", *(str(x) for item in paths.items() for x in item)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def _write_reports(self, tmp_path, tag, values):
        paths = []
        for i, v in enumerate(values):
            report = EvaluationReport(bleu_1=v, bleu_2=v * 0.8, bleu_3=v * 0.6,
                                      bleu_4=v * 0.4, p_embed=None, r_embed=None,
                                      f1_embed=None, n_pairs=10)
            path = tmp_path / f"{tag}_{i}.json"
            report.to_json(path)
            paths.append(str(path))
        return paths

    def test_compare_flags_significant_difference(self, tmp_path, capsys):
        a = self._write_reports(tmp_path, "a", [0.52, 0.50, 0.53, 0.51])
        b = self._write_reports(tmp_path, "b", [0.31, 0.30, 0.33, 0.32])
        out = tmp_path / "cmp.json"
        assert main(["compare", "--a", *a, "--b", *b, "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        bleu1 = next(r for r in table["metrics"] if r["metric"] == "bleu_1")
        assert bleu1["significant"] is True
        assert bleu1["t"] > 0

    def test_compare_degenerate_is_numeric_error(self, tmp_path):
        a = self._write_reports(tmp_path, "a", [0.5, 0.5, 0.5])
        b = self._write_reports(tmp_path, "c", [0.5, 0.5, 0.5])
        assert main(["compare", "--a", *a, "--b", *b]) == 4

    def test_compare_mismatched_counts_is_usage_error(self, tmp_path):
        a = self._write_reports(tmp_path, "a", [0.5, 0.6])
        b = self._write_reports(tmp_path, "d", [0.5])
        assert main(["compare", "--a", *a, "--b", *b]) == 2


WORDS = ["lungs", "clear", "heart", "size", "normal", "é"]
token_lines = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
hypothesis_lines = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)   # may be empty
numbers = st.sampled_from(["1.0", "-0.5", "0", "2e-3"])
non_numbers = st.sampled_from(["x", "nan", "inf", "-inf", "1e400", "1e200"])
embedding_lines = st.builds(
    lambda token, parts: " ".join([token, *parts]), st.sampled_from(WORDS),
    st.one_of(st.lists(numbers, min_size=2, max_size=2),
              st.lists(st.one_of(numbers, non_numbers), max_size=3)))
DIRECTORY = "a directory in place of the file"


@st.composite
def input_file(draw, lines, n_lines):
    """``n_lines`` drawn lines as UTF-8 bytes, or that text spoiled: a blank
    line inserted, one line too many, non-UTF-8 bytes in front, or DIRECTORY."""
    kind = draw(st.sampled_from(["text", "text", "text", "blank line", "extra line",
                                 "not UTF-8", "directory"]))
    if kind == "directory":
        return DIRECTORY
    rows = [draw(lines) for _ in range(n_lines + (kind == "extra line"))]
    if kind == "blank line":
        rows.insert(draw(st.integers(0, len(rows))), "")
    data = "".join(row + "\n" for row in rows).encode()
    return b"\xff\xfe" + data if kind == "not UTF-8" else data


@st.composite
def evaluate_inputs(draw):
    n_lines = draw(st.integers(1, 3))
    files = {"--hypotheses": draw(input_file(hypothesis_lines, n_lines)),
             "--references": draw(input_file(token_lines, n_lines))}
    if draw(st.booleans()):
        files["--embeddings"] = draw(input_file(embedding_lines, draw(st.integers(1, 6))))
    return files, draw(st.sampled_from(["error", "zero"]))


class TestEvaluateProperty:
    @given(evaluate_inputs())
    @settings(max_examples=80, deadline=None)
    def test_any_input_files_exit_with_a_documented_code(self, case):
        """Valid and invalid files alike end in exit 0, 2 or 3, never in a
        traceback, and every failure prints an ``error:`` line."""
        files, policy = case
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["evaluate", "--unknown-policy", policy]
            for i, (option, content) in enumerate(files.items()):
                path = Path(tmp) / f"{i}.txt"
                if content == DIRECTORY:
                    path.mkdir()
                else:
                    path.write_bytes(content)
                argv += [option, str(path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code:
            assert stderr.getvalue().startswith("error: ")


@st.composite
def generate_options(draw):
    """``generate`` options: finite, negative and non-finite temperatures,
    every split, present and missing subsets, valid and negative seeds."""
    temperature = draw(st.one_of(
        st.sampled_from(["0", "0.5", "1", "-0.5", "nan", "inf", "-inf"]),
        st.floats(-2.0, 4.0).map(repr)))
    return [f"--temperature={temperature}",
            "--split", draw(st.sampled_from(["train", "val", "test"])),
            "--subset", str(draw(st.sampled_from([0, 1, 2, -1]))),
            f"--seed={draw(st.integers(-3, 2 ** 40))}"]


class TestGenerateProperty:
    @staticmethod
    def _generate(pipeline, options, out_dir):
        argv = ["generate", "--checkpoint", str(pipeline["run"] / "best"),
                "--data", str(pipeline["prep"]), "--out", str(out_dir / "hyp.txt"), *options]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        return code, stderr.getvalue()

    @given(generate_options())
    @settings(max_examples=25, deadline=None)
    def test_any_options_exit_with_a_documented_code(self, pipeline, options):
        """Every run exits 0, 2 or 3 with no traceback; a valid run repeated
        writes the same bytes and the same generation statistics."""
        with tempfile.TemporaryDirectory() as tmp:
            runs = [Path(tmp) / "a", Path(tmp) / "b"]
            code, err = self._generate(pipeline, options, runs[0])
            assert code in (0, 2, 3)
            assert "Traceback" not in err
            if code:
                assert "error" in err
                return
            assert self._generate(pipeline, options, runs[1]) == (0, "")
            hyps = [(run / "hyp.txt").read_bytes() for run in runs]
            stats = [json.loads((run / "provenance.json").read_text())["generation"]
                     for run in runs]
        assert hyps[0] == hyps[1]
        assert stats[0] == stats[1]
