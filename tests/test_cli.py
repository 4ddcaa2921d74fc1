"""End-to-end command surface: each stage's output feeds the next, outputs
are deterministic, and error classes map to distinct exit codes."""

import builtins
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cxrgen.checkpoint
import cxrgen.cli
import cxrgen.data
import cxrgen.files
import cxrgen.metrics
import cxrgen.model
import cxrgen.text
from cxrgen.checkpoint import load_checkpoint, read_manifest, save_checkpoint
from cxrgen.cli import main
from cxrgen.metrics import EvaluationReport
from cxrgen.model import MAX_LEN, init_parameters
from cxrgen.text import END_ID, UNK_ID

TINY_TRAIN = ["--d-model", "16", "--n-heads", "2", "--epochs", "1"]
NOT_UTF8 = b"\xff\xfe"   # prefixed to a file's bytes, they are no longer UTF-8


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
    gen = root / "gen"
    assert main(["generate", "--checkpoint", str(run / "best"), "--data", str(prep),
                 "--subset", "0", "--split", "test", "--out", str(gen),
                 "--temperature", "0", "--seed", "1"]) == 0
    return {"root": root, "corpus": corpus, "prep": prep, "run": run, "gen": gen,
            "hyp": gen / "hyp.txt", "ref": gen / "ref.txt"}


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


    @pytest.mark.parametrize("flags", [
        ["--n-per", "2", "--feature-dim", "6"], ["--n-per-stratum=2", "--feature=6"],
        ["--n-per-stratum", "2", "--feature-dim", "6", "--se", "1"]])
    def test_command_line_abbreviation_is_usage_error(self, tmp_path, capsys, flags):
        """An option name is written in full on the command line, as in a
        config file: a unique prefix exits 2, with nothing written."""
        assert main(["synth-data", "--out", str(tmp_path / "out"), *flags]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_abbreviated_config_flag_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n-per-stratum": 2, "feature-dim": 6}))
        for flags in (["--conf", str(config)], [f"--con={config}"]):
            assert main(["synth-data", "--out", str(tmp_path / "out"), *flags]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_abbreviation_is_usage_error(self, pipeline, tmp_path, capsys):
        assert main(["train", "--data", str(pipeline["prep"]), "--out", str(tmp_path / "run"),
                     *TINY_TRAIN, "--learning", "0.01"]) == 2
        assert "unrecognized arguments: --learning" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["path", "list", "null"])
    def test_config_key_in_a_config_file_is_usage_error(self, tmp_path, capsys, kind):
        """A config file names no other config file: its ``config`` key exits
        2 whatever its value, and the other file is not read."""
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"n-per-stratum": 2, "feature-dim": 6}))
        config = tmp_path / "config.json"
        value = {"path": str(other), "list": [str(other)], "null": None}[kind]
        config.write_text(json.dumps({"config": value}))
        opened = []
        real_open = builtins.open

        def spy(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builtins, "open", spy)
            code = main(["synth-data", "--out", str(tmp_path / "out"),
                         "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config file {config}: 'config'" in err and "Traceback" not in err
        assert str(other) not in opened and not (tmp_path / "out").exists()


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

    def test_provenance_records_each_cleaning_resource(self, pipeline, tmp_path):
        """Each cleaning file's path, or "shipped", and the sha256 of the
        bytes parsed: a custom file's bytes, or the shipped resource's."""
        stopwords = tmp_path / "stop.txt"
        stopwords.write_bytes(b"# custom\nthe\nof\n")
        out = tmp_path / "out"
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(out), "--subset-size", "12",
                     "--stopwords", str(stopwords)]) == 0
        cleaning = json.loads((out / "provenance.json").read_text())["cleaning"]
        shipped = Path(cxrgen.text.__file__).parent / "resources"
        assert cleaning == {
            "stopwords": {"path": str(stopwords),
                          "sha256": hashlib.sha256(stopwords.read_bytes()).hexdigest()},
            **{option: {"path": "shipped", "sha256": hashlib.sha256(
                (shipped / name).read_bytes()).hexdigest()}
               for option, name in (("std_map", "standardization.txt"),
                                    ("reject_patterns", "reject_patterns.txt"))},
        }

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["prepare-data", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_oversized_subsets_is_usage_error(self, pipeline, tmp_path):
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(tmp_path / "out"), "--subsets", "9",
                     "--subset-size", "1000"]) == 2

    def test_more_subsets_than_reports_is_usage_error(self, pipeline, tmp_path, capsys):
        """With --subset-size 0, 40 subsets of 32 reports would hold 0 each."""
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(tmp_path / "out"), "--subsets", "40"]) == 2
        assert "cannot draw 40 subset(s) of 0 examples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_path_too_long_to_open_is_usage_error(self, tmp_path, capsys):
        """Any ``OSError`` on opening a path exits 2, not only a missing file."""
        assert main(["prepare-data", "--data", str(tmp_path / ("x" * 5000)),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_invalid_reject_pattern_is_usage_error(self, pipeline, tmp_path, capsys):
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("# comment\nprior study\n\n(unclosed\n")
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(tmp_path / "out"), "--reject-patterns", str(patterns)]) == 2
        err = capsys.readouterr().err
        assert f"error: {patterns}:4: invalid regular expression '(unclosed'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_canonical_phrase_is_usage_error(self, pipeline, tmp_path, capsys):
        """Found when the map is read, before any report is cleaned."""
        std_map = tmp_path / "std.txt"
        std_map.write_text("left lung => lung\nlungs => Lungs\n")
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(tmp_path / "out"), "--std-map", str(std_map)]) == 2
        err = capsys.readouterr().err
        assert f"error: {std_map}: canonical phrase 'Lungs' holds 'Lungs'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_letter_that_stays_uppercase_rejects_only_its_record(self, pipeline, tmp_path):
        """'𝐀' has no lowercase form: its record is listed in rejects.jsonl
        and the others are prepared."""
        lines = (pipeline["corpus"] / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert "lungs" in record["report"]
        record["report"] = record["report"].replace("lungs", "𝐀lungs")
        lines[0] = json.dumps(record)
        data = tmp_path / "dataset.jsonl"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["prepare-data", "--data", str(data), "--out", str(out)]) == 0
        read = lambda name: [json.loads(line) for line in (out / name).read_text().splitlines()]
        assert read("rejects.jsonl") == [{"id": record["id"], "reason": "malformed_token",
                                          "detail": "malformed token '𝐀lungs'"}]
        kept = [prepared["id"] for prepared in read("cleaned.jsonl")]
        assert len(kept) == len(lines) - 1 and record["id"] not in kept

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
        """Each run writes exactly its hypotheses, references and record, the
        same bytes every time; a missing parent of ``--out`` is created."""
        out_a = tmp_path / "a"
        out_b = tmp_path / "missing" / "b"
        for out in (out_a, out_b):
            assert main(["generate", "--checkpoint", str(pipeline["run"] / "best"),
                         "--data", str(pipeline["prep"]), "--subset", "0",
                         "--split", "test", "--out", str(out),
                         "--temperature", "0", "--seed", "1"]) == 0
        assert sorted(_files(out_a)) == ["hyp.txt", "provenance.json", "ref.txt"]
        assert _files(out_a) == _files(out_b)
        assert (out_a / "hyp.txt").read_bytes() == pipeline["hyp"].read_bytes()
        assert (out_a / "ref.txt").read_bytes() == pipeline["ref"].read_bytes()

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
                     "--out", str(tmp_path / "gen")]) == 0

    def test_corrupted_checkpoint_is_integrity_error(self, pipeline, tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["run"] / "best", broken)
        blob = bytearray((broken / "params.bin").read_bytes())
        blob[17] ^= 0x01
        (broken / "params.bin").write_bytes(bytes(blob))
        assert main(["generate", "--checkpoint", str(broken),
                     "--data", str(pipeline["prep"]), "--subset", "0",
                     "--split", "test", "--out", str(tmp_path / "gen"),
                     "--temperature", "0", "--seed", "1"]) == 3

    def test_manifest_that_is_not_an_object_is_integrity_error(self, pipeline, tmp_path):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(pipeline["run"] / "best", broken)
        (broken / "manifest.json").write_text("[1]")
        assert main(["generate", "--checkpoint", str(broken),
                     "--data", str(pipeline["prep"]), "--subset", "0",
                     "--split", "test", "--out", str(tmp_path / "gen"),
                     "--temperature", "0", "--seed", "1"]) == 3

    def test_provenance_records_generation_statistics(self, pipeline):
        stats = json.loads((pipeline["gen"] / "provenance.json").read_text())["generation"]
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
                     "--out", str(tmp_path / "gen")]) == 3
        assert "absent-test-id" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "gen").exists()


    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf", "-inf"])
    def test_bad_temperature_is_usage_error(self, pipeline, tmp_path, capsys, value):
        """Rejected by argparse, before the checkpoint is read: a corrupt
        checkpoint would exit 3."""
        bad = tmp_path / "ckpt"
        shutil.copytree(pipeline["run"] / "best", bad)
        (bad / "params.bin").write_bytes(b"corrupt")
        assert main(["generate", "--checkpoint", str(bad), "--data", str(pipeline["prep"]),
                     "--out", str(tmp_path / "gen"), f"--temperature={value}"]) == 2
        assert "argument --temperature" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

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
                        extra=read_manifest(pipeline["run"] / "best", None)["extra"])
        gen = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(end_first), "--data", str(pipeline["prep"]),
                     "--subset", "0", "--split", "test", "--out", str(gen),
                     "--temperature", "0", "--seed", "1"]) == 0
        hyp = gen / "hyp.txt"
        lines = hyp.read_text().splitlines()
        assert lines and all(line == "" for line in lines)
        stats = json.loads((gen / "provenance.json").read_text())["generation"]
        assert stats["empty_reports"] == stats["reports"] == len(lines)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--hypotheses", str(hyp), "--references", str(pipeline["ref"]),
                     "--out", str(out)]) == 0
        report = EvaluationReport.from_json(out)
        assert (report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4) == (0.0,) * 4

    @pytest.mark.parametrize("field, value, message", [
        ("age", "x", "age must be an integer, got 'x'"),
        ("features", [0.0] * 7, "7 features, but line 1 has 8"),
        ("tokens", "heart", "tokens must be a list of strings"),
        ("tokens", ["heart", 5], "tokens must be a list of strings")])
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

    @pytest.mark.parametrize("token", ["ab\ncd", "a b", "ab\x85cd"])
    def test_prepared_token_that_is_not_one_word_is_integrity_error(self, pipeline, tmp_path,
                                                                    token):
        """A test report's token that ``str.split`` cuts would write its
        reference as more lines, or more words, of ``ref.txt`` than it has."""
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        test_id = json.loads((prep / "splits" / "subset_0.json").read_text())["test_ids"][0]
        records = [json.loads(line) for line in (prep / "cleaned.jsonl").read_text().splitlines()]
        for record in records:
            if record["id"] == test_id:
                record["tokens"][1] = token
        (prep / "cleaned.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        code, err = _run(["generate", "--checkpoint", str(pipeline["run"] / "best"),
                          "--data", str(prep), "--subset", "0", "--split", "test",
                          "--out", str(tmp_path / "gen"), "--temperature", "0", "--seed", "1"])
        assert code == 3 and repr(token) in err and "Traceback" not in err
        assert not (tmp_path / "gen").exists()

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

    @pytest.mark.parametrize("change", [
        {"categories": "group_a"}, {"categories": ["group_a", "group_a"]},
        {"categories": [1, 2]}, {"categories": []}, {"age_min": True}, {"age_min": 2.7},
        {"age_max": "x"}, {"age_min": 91, "age_max": 91}],
        ids=["string-categories", "repeated-category", "number-categories",
             "no-categories", "bool-age", "float-age", "string-age", "min-not-below-max"])
    def test_bad_demographics_manifest_value_is_integrity_error(self, pipeline, tmp_path,
                                                                capsys, change):
        """Checked when the prepared data loads: a string is not split into
        characters, a bool or a float is not taken for an age."""
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        payload = json.loads((prep / "demographics.json").read_text())
        (prep / "demographics.json").write_text(json.dumps({**payload, **change}))
        assert main(["train", "--data", str(prep), "--out", str(tmp_path / "run"),
                     *TINY_TRAIN]) == 3
        err = capsys.readouterr().err
        assert f"error: {prep / 'demographics.json'}: " in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["cleaned.jsonl", "vocab.txt", "demographics.json"])
    def test_missing_prepared_file_is_usage_error(self, pipeline, tmp_path, capsys, name):
        """A path that cannot be opened exits 2, whichever prepared file it is."""
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        (prep / name).unlink()
        assert main(["train", "--data", str(prep), "--out", str(tmp_path / "run"),
                     *TINY_TRAIN]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    def test_repeated_vocabulary_token_is_integrity_error(self, pipeline, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        lines = (prep / "vocab.txt").read_text().splitlines()
        (prep / "vocab.txt").write_text("\n".join(lines + [lines[5]]) + "\n")
        assert main(["train", "--data", str(prep), "--out", str(tmp_path / "run"),
                     *TINY_TRAIN]) == 3
        err = capsys.readouterr().err
        assert "vocab.txt: vocabulary contains duplicate tokens" in err
        assert "Traceback" not in err

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
                        extra=read_manifest(pipeline["run"] / "best", None)["extra"])
        gen = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(prep),
                     "--out", str(gen)]) == 2
        err = capsys.readouterr().err
        assert "16-wide features" in err and "takes 24" in err and "Traceback" not in err
        assert not gen.exists()

    def test_checkpoint_with_a_stored_strict_flag_generates(self, pipeline, tmp_path):
        """Codecs once stored a ``strict`` key, and checkpoints a
        ``demographic_fields`` list beside the codec; such a checkpoint still
        loads and decodes exactly as without them."""
        params, cfg = load_checkpoint(pipeline["run"] / "best")
        extra = read_manifest(pipeline["run"] / "best", None)["extra"]
        extra["codec"]["strict"] = True
        extra["demographic_fields"] = ["gender", "age", "ethnicity"]
        save_checkpoint(params, cfg, tmp_path / "ckpt", extra=extra)
        gen = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(tmp_path / "ckpt"),
                     "--data", str(pipeline["prep"]), "--subset", "0", "--split", "test",
                     "--out", str(gen), "--temperature", "0", "--seed", "1"]) == 0
        assert (gen / "hyp.txt").read_bytes() == pipeline["hyp"].read_bytes()

    def test_generate_reads_only_the_records_and_the_split(self, pipeline, tmp_path):
        """The vocabulary and the codec come from the checkpoint, so
        ``generate`` needs neither ``vocab.txt`` nor ``demographics.json``."""
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        (prep / "vocab.txt").unlink()
        (prep / "demographics.json").unlink()
        gen = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(pipeline["run"] / "best"),
                     "--data", str(prep), "--subset", "0", "--split", "test",
                     "--out", str(gen), "--temperature", "0", "--seed", "1"]) == 0
        assert (gen / "hyp.txt").read_bytes() == pipeline["hyp"].read_bytes()

    @pytest.mark.parametrize("command", ["prepare-data", "train", "generate"])
    def test_provenance_hashes_the_bytes_each_input_was_parsed_from(
            self, pipeline, tmp_path, monkeypatch, command):
        """Each input is opened once: its digest in ``provenance.json`` is
        taken from the bytes the command parsed, not from a second read."""
        prep, out = pipeline["prep"], tmp_path / "out"
        argv = {
            "prepare-data": ["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                             "--out", str(out), "--subset-size", "12"],
            "train": ["train", "--data", str(prep), "--out", str(out), *TINY_TRAIN],
            "generate": ["generate", "--checkpoint", str(pipeline["run"] / "best"),
                         "--data", str(prep), "--out", str(out)],
        }[command]
        opened = []

        def recording_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(os.path.realpath(file))
            return real_open(file, *args, **kwargs)

        real_open = io.open
        monkeypatch.setattr(io, "open", recording_open)   # what pathlib opens with
        monkeypatch.setattr(builtins, "open", recording_open)
        assert main(argv) == 0
        monkeypatch.undo()
        inputs = json.loads((out / "provenance.json").read_text())["inputs"]
        assert sorted(Path(path).name for path in inputs) == {
            "prepare-data": ["dataset.jsonl"],
            "train": ["cleaned.jsonl", "demographics.json", "subset_0.json", "vocab.txt"],
            "generate": ["cleaned.jsonl", "manifest.json", "params.bin", "subset_0.json"],
        }[command]
        for path, digest in inputs.items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert opened.count(os.path.realpath(path)) == 1

    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_an_edited_split_changes_its_recorded_digest(self, pipeline, tmp_path, command):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        split_path = prep / "splits" / "subset_0.json"
        argv = {"train": ["train", "--data", str(prep), *TINY_TRAIN],
                "generate": ["generate", "--checkpoint", str(pipeline["run"] / "best"),
                             "--data", str(prep), "--temperature", "0"]}[command]

        def recorded_digest(out):
            assert main([*argv, "--out", str(out)]) == 0
            return json.loads((out / "provenance.json").read_text())["inputs"][str(split_path)]

        before = recorded_digest(tmp_path / "before")
        manifest = json.loads(split_path.read_text())
        manifest["seed"] = 99   # a retired key: loaded past, not read, still digested
        split_path.write_text(json.dumps(manifest))
        after = recorded_digest(tmp_path / "after")
        assert before != after == hashlib.sha256(split_path.read_bytes()).hexdigest()

    def test_an_edited_checkpoint_vocabulary_changes_the_manifest_digest(self, pipeline,
                                                                         tmp_path):
        """generate parses the vocabulary from ``manifest.json``, so the
        manifest's digest is one of its inputs."""
        checkpoint = tmp_path / "best"
        shutil.copytree(pipeline["run"] / "best", checkpoint)
        manifest_path = checkpoint / "manifest.json"

        def recorded_digest(out):
            assert main(["generate", "--checkpoint", str(checkpoint),
                         "--data", str(pipeline["prep"]), "--temperature", "0",
                         "--out", str(out)]) == 0
            digest = json.loads((out / "provenance.json").read_text())["inputs"][
                str(manifest_path)]
            assert digest == hashlib.sha256(manifest_path.read_bytes()).hexdigest()
            return digest

        before = recorded_digest(tmp_path / "before")
        manifest = json.loads(manifest_path.read_text())
        vocab = manifest["extra"]["vocab"]
        vocab[len(vocab) // 2] = "edited-token"
        manifest_path.write_text(json.dumps(manifest))
        assert recorded_digest(tmp_path / "after") != before

    def test_generate_into_the_training_directory_keeps_its_provenance(self, pipeline,
                                                                       tmp_path):
        """Each generate writes its own ``--out`` directory inside the run:
        the run's ``provenance.json`` and every other generate's record are
        kept."""
        run = tmp_path / "run"
        assert main(["train", "--data", str(pipeline["prep"]), "--out", str(run),
                     *TINY_TRAIN]) == 0
        train_record = (run / "provenance.json").read_bytes()
        for name, temperature in (("greedy", "0"), ("sampled", "0.5")):
            assert main(["generate", "--checkpoint", str(run / "best"),
                         "--data", str(pipeline["prep"]), "--out", str(run / name),
                         "--temperature", temperature]) == 0
        assert (run / "provenance.json").read_bytes() == train_record
        for name, temperature in (("greedy", 0.0), ("sampled", 0.5)):
            record = json.loads((run / name / "provenance.json").read_text())
            assert record["command"] == "generate"
            assert "out" not in record["options"]
            assert record["options"]["temperature"] == temperature

    def test_generate_on_an_empty_split_is_usage_error(self, pipeline, tmp_path, capsys):
        """A subset of 5 reports has no test split: generate writes nothing
        rather than an empty-line file that evaluate would reject."""
        prep = tmp_path / "prep"
        assert main(["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                     "--out", str(prep), "--subset-size", "5"]) == 0
        assert json.loads((prep / "splits" / "subset_0.json").read_text())["test_ids"] == []
        out = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(pipeline["run"] / "best"),
                     "--data", str(prep), "--subset", "0", "--split", "test",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the test split of subset 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("spoil, message", [
        (lambda extra: {**extra, "vocab": extra["vocab"][1:]}, "reserved tokens"),
        (lambda extra: {**extra, "vocab": extra["vocab"][:5] + [5] + extra["vocab"][6:]},
         "a vocabulary is a list of string tokens"),
        (lambda extra: {**extra, "vocab": extra["vocab"][:-1]},
         "the vocabulary holds"),
        (lambda extra: {**extra, "vocab": extra["vocab"] + ["zebra"]},
         "the vocabulary holds"),
        (lambda extra: {**extra, "codec": {**extra["codec"],
                                           "categories": extra["codec"]["categories"][:1]}},
         "the codec encodes"),
        (lambda extra: {**extra, "codec": {k: v for k, v in extra["codec"].items()
                                           if k != "age_min"}},
         "missing key 'age_min'"),
        (lambda extra: {**extra, "codec": "gender,age"}, "a demographic codec is a JSON object"),
        (lambda extra: {**extra, "codec": None}, "a demographic codec is a JSON object"),
        (lambda extra: {**extra, "codec": {**extra["codec"], "age_min": "19"}},
         "age_min and age_max must be integers"),
        (lambda extra: {**extra, "codec": {**extra["codec"], "fields": "age"}},
         "fields must be distinct names"),
        (lambda extra: [extra], "a vocabulary is a list of string tokens"),
    ], ids=["vocabulary-without-header", "non-string-token", "short-vocabulary",
            "long-vocabulary", "narrow-codec", "codec-missing-key", "string-codec",
            "null-codec", "string-age", "string-fields", "extra-not-an-object"])
    def test_checkpoint_vocabulary_or_codec_that_does_not_fit_is_integrity_error(
            self, pipeline, tmp_path, capsys, spoil, message):
        """The vocabulary and the codec a checkpoint embeds are checked against
        its model before any report is decoded."""
        params, cfg = load_checkpoint(pipeline["run"] / "best")
        extra = read_manifest(pipeline["run"] / "best", None)["extra"]
        save_checkpoint(params, cfg, tmp_path / "ckpt", extra=spoil(extra))
        gen = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(tmp_path / "ckpt"),
                     "--data", str(pipeline["prep"]), "--out", str(gen)]) == 3
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'ckpt' / 'manifest.json'}: " in err
        assert message in err and "Traceback" not in err
        assert not gen.exists()

    @pytest.mark.parametrize("command", ["synth-data", "prepare-data", "train"])
    def test_deeply_nested_json_is_a_documented_error(self, pipeline, tmp_path, capsys,
                                                      command):
        """JSON nested too deeply to parse is malformed: exit 2 in a
        ``--config`` file, exit 3 in a dataset line or ``demographics.json``."""
        nested = "[" * 100_000
        out = tmp_path / "out"
        if command == "synth-data":
            bad = tmp_path / "config.json"
            argv = ["synth-data", "--config", str(bad), "--out", str(out)]
        elif command == "prepare-data":
            bad = tmp_path / "dataset.jsonl"
            argv = ["prepare-data", "--data", str(bad), "--out", str(out)]
        else:
            prep = tmp_path / "prep"
            shutil.copytree(pipeline["prep"], prep)
            bad = prep / "demographics.json"
            argv = ["train", "--data", str(prep), "--out", str(out), *TINY_TRAIN]
        bad.write_text(nested + "\n")
        assert main(argv) == (2 if command == "synth-data" else 3)
        err = capsys.readouterr().err
        assert f"error: {bad}" in err and "malformed" in err and "Traceback" not in err
        assert not out.exists()

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


class TestOutputsKeepOtherRecords:
    """Every artifact command claims its ``--out`` directory the same way: it
    writes no file into a directory whose ``provenance.json`` another command
    wrote, and none over an existing file."""

    COMMANDS = ["synth-data", "prepare-data", "train", "generate"]

    @staticmethod
    def _argv(command, pipeline, out):
        data = {"synth-data": ["--n-per-stratum", "2", "--feature-dim", "6"],
                "prepare-data": ["--data", str(pipeline["corpus"] / "dataset.jsonl")],
                "train": ["--data", str(pipeline["prep"]), *TINY_TRAIN],
                "generate": ["--checkpoint", str(pipeline["run"] / "best"),
                             "--data", str(pipeline["prep"])]}[command]
        return [command, *data, "--out", str(out), "--seed", "7"]

    @pytest.mark.parametrize("command, other", [
        ("train", "prep"), ("prepare-data", "corpus"), ("synth-data", "run"),
        ("generate", "run"), ("generate", "prep"), ("generate", "corpus")])
    def test_out_holding_another_commands_record_is_usage_error(self, pipeline, tmp_path,
                                                                  command, other):
        """``train --data prep --out prep`` would replace the record of how
        ``cleaned.jsonl`` was made with its own, and ``generate --out run``
        the record of how the checkpoint was trained."""
        target = tmp_path / other
        shutil.copytree(pipeline[other], target)
        before = _files(target)
        code, err = _run(self._argv(command, pipeline, target))
        assert code == 2
        assert "holds the provenance record of" in err and "Traceback" not in err
        assert _files(target) == before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rerun_into_its_own_out_is_allowed(self, pipeline, tmp_path, command):
        argv = self._argv(command, pipeline, tmp_path / "out")
        assert main(argv) == 0
        before = _files(tmp_path / "out")
        assert "provenance.json" in before
        before.pop("trainlog.jsonl", None)   # it records each epoch's wall time
        assert main(argv) == 0
        after = _files(tmp_path / "out")
        after.pop("trainlog.jsonl", None)
        assert after == before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_that_is_an_existing_file_is_usage_error(self, pipeline, tmp_path, monkeypatch,
                                                         command):
        """The claim refuses it before the work: no input file is read (every
        reader goes through ``cxrgen.files.read_lines``), no corpus is
        synthesized, and the file is left as it was."""
        out = tmp_path / "out"
        out.write_bytes(b"not a directory\n")
        calls = []
        read_lines, synthesize = cxrgen.files.read_lines, cxrgen.cli.synthesize_corpus

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (cxrgen.files, cxrgen.cli, cxrgen.data, cxrgen.metrics, cxrgen.text):
            assert module.read_lines is read_lines
            monkeypatch.setattr(module, "read_lines", counted("read_lines", read_lines))
        monkeypatch.setattr(cxrgen.cli, "synthesize_corpus",
                            counted("synthesize_corpus", synthesize))
        code, err = _run(self._argv(command, pipeline, out))
        assert code == 2 and "Traceback" not in err
        assert "not a directory" in err
        assert calls == []
        assert [path.name for path in tmp_path.iterdir()] == ["out"]
        assert out.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_that_is_a_directory_is_usage_error(self, pipeline, tmp_path, command):
        """``--out``'s ``provenance.json`` is read to claim the directory: one
        that is a directory exits 2 before anything is written."""
        (tmp_path / "out" / "provenance.json").mkdir(parents=True)
        code, err = _run(self._argv(command, pipeline, tmp_path / "out"))
        assert code == 2
        assert "provenance.json" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "out",
                                               tmp_path / "out" / "provenance.json"]


class TestCheckpointConfig:
    """A checkpoint whose config holds a value of the wrong type or an
    impossible size exits 3 through ``generate``, with nothing written."""

    @staticmethod
    def _generate(pipeline, tmp_path, field, value):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline["run"] / "best", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"][field] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        return _run(["generate", "--checkpoint", str(ckpt), "--data", str(pipeline["prep"]),
                     "--out", str(tmp_path / "gen")])

    @pytest.mark.parametrize("field, value", [
        ("d_model", 16.0), ("n_decoder_blocks", 1.5), ("n_heads", True),
        ("max_len", float("nan")), ("max_len", 1e308), ("dropout_rate", False)])
    def test_value_of_the_wrong_type_is_integrity_error(self, pipeline, tmp_path, field,
                                                        value):
        code, err = self._generate(pipeline, tmp_path, field, value)
        assert code == 3 and field in err and "Traceback" not in err
        assert not (tmp_path / "gen").exists()

    def test_block_count_is_checked_before_any_shape_is_built(self, pipeline, tmp_path,
                                                              monkeypatch):
        """10**19 decoder blocks would make ``parameter_shapes`` fill memory:
        the loader compares the tensor count the config implies with the
        manifest's list first, and never calls it."""
        calls = []

        def parameter_shapes(cfg):
            calls.append(cfg.n_decoder_blocks)
            raise RuntimeError("parameter_shapes was called")

        monkeypatch.setattr(cxrgen.checkpoint, "parameter_shapes", parameter_shapes)
        code, err = self._generate(pipeline, tmp_path, "n_decoder_blocks", 10 ** 19)
        assert code == 3 and "tensors" in err and "Traceback" not in err
        assert calls == []
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("max_len", [MAX_LEN + 1, 10 ** 11])
    def test_max_len_over_the_cap_is_refused_before_decoding(self, pipeline, tmp_path,
                                                             monkeypatch, max_len):
        """No parameter depends on ``max_len``, so only the config's cap stops
        a huge one: ``DecodeCache`` would allocate ``[B x max_len]`` buffers."""
        built = []

        def decode_cache(*args):
            built.append(args)
            raise RuntimeError("DecodeCache was built")

        monkeypatch.setattr(cxrgen.model, "DecodeCache", decode_cache)
        code, err = self._generate(pipeline, tmp_path, "max_len", max_len)
        assert code == 3 and f"max_len must be in [3, {MAX_LEN}]" in err
        assert "Traceback" not in err
        assert built == []
        assert not (tmp_path / "gen").exists()

    def test_train_max_len_over_the_cap_exits_2(self, pipeline, tmp_path):
        code, err = _run(["train", "--data", str(pipeline["prep"]), "--out",
                          str(tmp_path / "run"), f"--max-len={MAX_LEN + 1}", *TINY_TRAIN])
        assert code == 2 and f"max_len must be in [3, {MAX_LEN}]" in err
        assert not (tmp_path / "run").exists()


class TestCheckpointValues:
    """A checkpoint whose bytes pass their checksums but hold a value that
    ``save_checkpoint`` or ``Vocabulary`` refuses exits 3 through
    ``generate``, with nothing written."""

    @staticmethod
    def _checkpoint(pipeline, tmp_path):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline["run"] / "best", ckpt)
        return ckpt, json.loads((ckpt / "manifest.json").read_text())

    @staticmethod
    def _generate(pipeline, tmp_path, ckpt):
        return _run(["generate", "--checkpoint", str(ckpt), "--data", str(pipeline["prep"]),
                     "--temperature", "0.5", "--out", str(tmp_path / "gen")])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tensor", [0, -1], ids=["first-tensor", "last-tensor"])
    def test_non_finite_parameter_is_integrity_error(self, pipeline, tmp_path, tensor, value):
        """One float of a tensor set to ``value`` and its sha256 rewritten to
        match: only the values themselves show the fault."""
        ckpt, manifest = self._checkpoint(pipeline, tmp_path)
        shapes = cxrgen.model.parameter_shapes(
            cxrgen.model.ModelConfig.from_dict(manifest["config"]))
        nbytes = [4 * int(np.prod(shape)) for shape in shapes.values()]
        index = tensor % len(nbytes)
        entry = manifest["tensors"][index]
        start = sum(nbytes[:index])
        stop = start + nbytes[index]
        blob = bytearray((ckpt / "params.bin").read_bytes())
        blob[start:start + 4] = np.float32(value).astype("<f4").tobytes()
        (ckpt / "params.bin").write_bytes(bytes(blob))
        entry["sha256"] = hashlib.sha256(bytes(blob[start:stop])).hexdigest()
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code, err = self._generate(pipeline, tmp_path, ckpt)
        assert code == 3 and repr(entry["name"]) in err and "not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("token", ["ab\ncd", "ab\rcd", "a b", "ab\tcd", "ab\x85cd", " ab"])
    def test_vocabulary_token_that_is_not_one_word_is_integrity_error(self, pipeline,
                                                                     tmp_path, token):
        """A token that ``str.split`` cuts would write a hypothesis line that
        breaks into several lines or words of ``hyp.txt``."""
        ckpt, manifest = self._checkpoint(pipeline, tmp_path)
        manifest["extra"]["vocab"][10] = token
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code, err = self._generate(pipeline, tmp_path, ckpt)
        assert code == 3 and repr(token) in err and "Traceback" not in err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("token", ["a b", "ab\tcd", "ab\x85cd", "ab\x0bcd"])
    def test_vocab_txt_token_that_is_not_one_word_is_integrity_error(self, pipeline,
                                                                    tmp_path, token):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        tokens = (prep / "vocab.txt").read_text().split("\n")
        tokens[10] = token
        (prep / "vocab.txt").write_text("\n".join(tokens))
        code, err = _run(["train", "--data", str(prep), "--out", str(tmp_path / "run"),
                          *TINY_TRAIN])
        assert code == 3 and "vocab.txt" in err and repr(token) in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


# null, -1, 0, +-10**30, 1.5, NaN, 1e308, "", " ", "x", [], [1, 2], {}, {"a": 1}, true
FIELD_VALUES = [None, -1, 0, 10 ** 30, -10 ** 30, 1.5, float("nan"), 1e308, "", " ", "x",
                [], [1, 2], {}, {"a": 1}, True]


class TestSplitManifestFields:
    """The split manifest holds exactly ``train_ids``, ``val_ids`` and
    ``test_ids``; ``train`` reads it."""

    @staticmethod
    def _train(pipeline, tmp_path, change, name="run"):
        prep = tmp_path / f"prep-{name}"
        shutil.copytree(pipeline["prep"], prep)
        path = prep / "splits" / "subset_0.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        return _run(["train", "--data", str(prep), "--subset", "0",
                     "--out", str(tmp_path / name), *TINY_TRAIN])

    def test_prepare_data_writes_only_the_id_lists(self, pipeline):
        for subset in (0, 1):
            path = pipeline["prep"] / "splits" / f"subset_{subset}.json"
            assert list(json.loads(path.read_text())) == ["train_ids", "val_ids", "test_ids"]
        demographics = json.loads((pipeline["prep"] / "demographics.json").read_text())
        assert list(demographics) == ["categories", "age_min", "age_max"]

    def test_retired_keys_load_and_give_the_same_split(self, pipeline, tmp_path):
        """A manifest written with ``subset_id``, ``seed`` and ``params``, of
        any value, trains to the same bytes as the one without them."""
        retired = {"subset_id": "x", "seed": 1.5, "params": {"source": None}}
        assert self._train(pipeline, tmp_path, lambda m: m, "plain") == (0, "")
        assert self._train(pipeline, tmp_path, lambda m: {**retired, **m}, "retired") == (0, "")
        for name in ("best/params.bin", "best/manifest.json"):
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "retired" / name).read_bytes())
        losses = [[{k: v for k, v in json.loads(line).items() if k != "seconds"}
                   for line in (tmp_path / run / "trainlog.jsonl").read_text().splitlines()]
                  for run in ("plain", "retired")]
        assert losses[0] == losses[1]

    @pytest.mark.parametrize("value", [*FIELD_VALUES, "real-ids-as-dict"],
                             ids=lambda value: repr(value))
    @pytest.mark.parametrize("key", ["train_ids", "val_ids", "test_ids"])
    def test_each_id_list_value_exits_with_its_code(self, pipeline, tmp_path, key, value):
        """Anything but a list of strings is an integrity error (3), a dict
        whose keys are the real ids included. An empty train or validation
        split is a usage error (2), and an empty test split trains (0)."""
        def change(manifest):
            ids = manifest[key]
            return {**manifest, key: dict.fromkeys(ids, 1) if value == "real-ids-as-dict"
                    else value}

        code, err = self._train(pipeline, tmp_path, change)
        expected = {"train_ids": 2, "val_ids": 2, "test_ids": 0}[key] if value == [] else 3
        assert code == expected, err
        assert "Traceback" not in err
        if code:
            assert "error" in err
        if code:   # refused before anything is written
            assert not (tmp_path / "run").exists()

    def test_unknown_key_is_integrity_error(self, pipeline, tmp_path):
        code, err = self._train(pipeline, tmp_path, lambda m: {**m, "subset": 0})
        assert code == 3 and "not a split manifest" in err and "'subset'" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()


class TestNotUtf8:
    @pytest.mark.parametrize("target", [
        "vocab.txt", "demographics.json", "splits/subset_0.json", "manifest.json",
        "--config", "--stopwords", "--std-map", "--reject-patterns"])
    def test_file_that_is_not_utf8_is_integrity_error(self, pipeline, tmp_path, capsys,
                                                     target):
        """Prepared files through ``train``, the checkpoint manifest through
        ``generate``, and option files through ``prepare-data``."""
        prep, ckpt, out = tmp_path / "prep", tmp_path / "ckpt", tmp_path / "out"
        shutil.copytree(pipeline["prep"], prep)
        shutil.copytree(pipeline["run"] / "best", ckpt)
        if target.startswith("--"):
            bad = tmp_path / "option.txt"
            argv = ["prepare-data", "--data", str(pipeline["corpus"] / "dataset.jsonl"),
                    "--out", str(out), target, str(bad)]
        elif target == "manifest.json":
            bad = ckpt / target
            argv = ["generate", "--checkpoint", str(ckpt), "--data", str(prep),
                    "--out", str(out)]
        else:
            bad = prep / target
            argv = ["train", "--data", str(prep), "--out", str(out), *TINY_TRAIN]
        bad.write_bytes(NOT_UTF8 + (bad.read_bytes() if bad.exists() else b"{}"))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"error: {bad} is not UTF-8 text" in err and "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c",
                                           "\x1d", "\x1e", "\x85"])
    def test_only_newlines_end_lines(self, tmp_path, capsys, separator):
        """A line separator other than \\n, \\r\\n or \\r splits tokens, not
        lines: a 2-line references file whose first line holds one does not
        pair with a 3-line hypotheses file."""
        refs, hyps = tmp_path / "refs.txt", tmp_path / "hyps.txt"
        refs.write_text(f"a b{separator}c\nd e\n", encoding="utf-8")
        hyps.write_text("a b\nc\nd e\n", encoding="utf-8")
        argv = ["evaluate", "--hypotheses", str(hyps), "--references", str(refs)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "3 hypotheses but 2 references" in err and "Traceback" not in err
        hyps.write_text("a b c\nd e\n", encoding="utf-8")
        assert main(argv) == 0
        assert "bleu_1: 1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_files_score_as_newline_files(self, pipeline, tmp_path, ending):
        """An empty hypothesis line is still one empty pair, whatever ends it."""
        refs = pipeline["ref"].read_text().splitlines()
        hyps = [""] + refs[1:]
        scores = []
        for label, end in (("lf", "\n"), ("other", ending)):
            directory = tmp_path / label
            directory.mkdir()
            for name, lines in (("hyps.txt", hyps), ("refs.txt", refs)):
                (directory / name).write_bytes("".join(line + end for line in lines).encode())
            assert main(["evaluate", "--hypotheses", str(directory / "hyps.txt"),
                         "--references", str(directory / "refs.txt"),
                         "--out", str(directory / "report.json")]) == 0
            scores.append(EvaluationReport.from_json(directory / "report.json"))
        assert scores[0] == scores[1]
        assert scores[1].n_pairs == len(refs) and scores[1].bleu_1 < 1.0

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

    @pytest.mark.parametrize("spoil", [
        lambda text: text[:len(text) // 2], lambda text: f"[{text}]",
        lambda text: text.replace('"bleu_2"', '"bleu_5"'),
        lambda text: text.replace('"n_pairs": 10,', ""),
        lambda text: text.replace('"bleu_1": 0.5', '"bleu_1": "x"'),
        lambda text: text.replace('"bleu_1": 0.5', '"bleu_1": NaN'),
        lambda text: text.replace('"bleu_1": 0.5', '"bleu_1": Infinity'),
        lambda text: text.replace('"bleu_1": 0.5', '"bleu_1": true'),
        lambda text: text.replace('"bleu_1": 0.5', '"bleu_1": null'),
        lambda text: text.replace('"n_pairs": 10', '"n_pairs": 10.5'),
        lambda text: text.replace('"f1_embed": null', '"f1_embed": 0.5'),
        lambda text: text.replace('"bleu_1": 0.5', '"bleu_1": 1e308'),
        lambda text: text.replace('"bleu_1": 0.5', '"bleu_1": -1e308'),
    ], ids=["truncated", "array", "unknown-key", "missing-key", "string-score", "nan-score",
            "infinite-score", "bool-score", "null-bleu", "float-n-pairs", "lone-embed-score",
            "huge-score", "huge-negative-score"])
    def test_malformed_report_is_integrity_error(self, tmp_path, capsys, spoil):
        a = self._write_reports(tmp_path, "a", [0.5, 0.6, 0.7])
        b = self._write_reports(tmp_path, "b", [0.2, 0.4, 0.3])
        bad = Path(b[1])
        bad.write_text(spoil(bad.read_text().replace('"bleu_1": 0.4', '"bleu_1": 0.5')))
        assert main(["compare", "--a", *a, "--b", *b, "--out", str(tmp_path / "cmp.json")]) == 3
        err = capsys.readouterr().err
        assert f"error: {bad}" in err and "Traceback" not in err
        assert not (tmp_path / "cmp.json").exists()

    def test_evaluate_then_compare_reads_back_rounded_scores(self, tmp_path):
        """A hypothesis equal to its reference has cosine similarity 1 + 2e-16
        under this table; the reports ``evaluate`` writes still load."""
        table = tmp_path / "emb.txt"
        table.write_text("a 0.8 0.6 0.5\nb 0.3 0.3 0.1\nc 0.1 0.1 0.2\n")
        refs = tmp_path / "refs.txt"
        refs.write_text("b a b a b\n")
        reports = {}
        for side, hyps in (("a", ["b a b a b\n", "a b c\n"]),
                           ("b", ["c c b c a b\n", "c a c\n"])):
            reports[side] = []
            for i, text in enumerate(hyps):
                hyp, out = tmp_path / f"{side}{i}.txt", tmp_path / f"{side}{i}.json"
                hyp.write_text(text)
                assert main(["evaluate", "--hypotheses", str(hyp), "--references", str(refs),
                             "--embeddings", str(table), "--out", str(out)]) == 0
                reports[side].append(str(out))
        assert EvaluationReport.from_json(reports["a"][0]).p_embed > 1.0
        assert main(["compare", "--a", *reports["a"], "--b", *reports["b"],
                     "--out", str(tmp_path / "cmp.json")]) == 0

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
                "--data", str(pipeline["prep"]), "--out", str(out_dir), *options]
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
            outputs = [_files(run) for run in runs]
        assert sorted(outputs[0]) == ["hyp.txt", "provenance.json", "ref.txt"]
        assert outputs[0] == outputs[1]


def _run(argv) -> tuple[int, str]:
    """The exit code and the standard error of ``main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _files(root) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to ``root``."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


WRONG_VALUES = st.sampled_from([None, True, "x", 1.5, -3, float("nan"), float("inf"),
                                [], {}, [1, "a"]])


@st.composite
def json_spoil(draw, keys):
    """How to spoil a JSON object: ``(kind, key, value)`` where kind is bytes
    that are not UTF-8, the text cut short, the object wrapped in an array,
    ``key`` dropped, or ``key`` given ``value`` in place of its own."""
    kind = draw(st.sampled_from(["not UTF-8", "truncated", "array", "missing key",
                                 "wrong value"]))
    return kind, draw(st.sampled_from(keys)), draw(WRONG_VALUES)


def spoiled_json(payload: dict, spoil) -> bytes:
    kind, key, value = spoil
    if kind == "missing key":
        payload = {k: v for k, v in payload.items() if k != key}
    elif kind == "wrong value":
        payload = {**payload, key: value}
    text = json.dumps([payload] if kind == "array" else payload)
    if kind == "truncated":
        text = text[:len(text) // 2]
    return (NOT_UTF8 if kind == "not UTF-8" else b"") + text.encode()


def spoil_json_file(path, spoil, line=None) -> None:
    """Spoil the JSON object in ``path``, or the one on line ``line`` (counted
    modulo the number of lines) of a file of one object per line."""
    if line is None:
        path.write_bytes(spoiled_json(json.loads(path.read_text()), spoil))
        return
    lines = path.read_bytes().splitlines()
    line %= len(lines)
    lines[line] = spoiled_json(json.loads(lines[line]), spoil)
    path.write_bytes(b"\n".join(lines) + b"\n")


def spoil_text_file(path, kind, bad_line) -> None:
    """Make ``path`` not UTF-8, or append ``bad_line`` to it."""
    data = path.read_bytes() if path.exists() else b""
    path.write_bytes(NOT_UTF8 + data if kind == "not UTF-8" else data + bad_line + b"\n")


def _option(draw, name, valid, invalid, broken):
    return f"--{name}={draw(st.sampled_from(invalid if broken else valid))}"


# option: (a line it accepts, a line it rejects or None)
CLEANING_FILES = {"stopwords": (b"the", None),
                  "std-map": (b"left lung => lung", b"no arrow here"),
                  "reject-patterns": (b"prior stud(y|ies)", b"(unclosed")}
DATASET_FIELDS = ["id", "report", "gender", "age", "ethnicity", "features"]
PREPARE_OPTIONS = {   # option: (valid values, invalid values)
    "subsets": ([1, 2, 3], [0, -1, 40]),
    "subset-size": ([0, 4, 8], [-1, 1000]),
    "vocab-cap": ([5, 64, 2212], [4, -1, "x"]),
    "top-ethnicities": ([1, 2, 5], [0, -2]),
    "min-raw-words": ([0, 9], [1000]),
    "age-min": ([0, 19], [91, 200]),
    "seed": ([0, 3, 2 ** 33], [-1, "x"]),
}


@st.composite
def prepare_data_case(draw):
    """Valid options and cleaning files, with nothing broken or one option
    value, one dataset record or one cleaning file broken."""
    broken = draw(st.sampled_from(["nothing", "nothing", "option", "dataset", "cleaning"]))
    bad_option = draw(st.sampled_from(sorted(PREPARE_OPTIONS)))
    options = [_option(draw, name, *values, broken == "option" and name == bad_option)
               for name, values in PREPARE_OPTIONS.items()]
    dataset = ((draw(st.integers(0, 31)), draw(json_spoil(DATASET_FIELDS)))
               if broken == "dataset" else None)
    cleaning = {name: draw(st.sampled_from(["absent", "valid"])) for name in CLEANING_FILES}
    if broken == "cleaning":
        name = draw(st.sampled_from(sorted(CLEANING_FILES)))
        cleaning[name] = draw(st.sampled_from(
            ["not UTF-8", "bad line"] if CLEANING_FILES[name][1] else ["not UTF-8"]))
    return options, dataset, cleaning


class TestPrepareDataProperty:
    @given(prepare_data_case())
    @settings(max_examples=30, deadline=None)
    def test_any_options_and_inputs_exit_with_a_documented_code(self, pipeline, case):
        """Every run exits 0, 2 or 3 with no traceback; a valid run repeated
        writes the same bytes."""
        options, dataset, cleaning = case
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "dataset.jsonl"
            shutil.copy(pipeline["corpus"] / "dataset.jsonl", data)
            if dataset is not None:
                spoil_json_file(data, dataset[1], line=dataset[0])
            argv = ["prepare-data", "--data", str(data), *options]
            for name, kind in cleaning.items():
                if kind == "absent":
                    continue
                path = Path(tmp) / f"{name}.txt"
                good, bad = CLEANING_FILES[name]
                path.write_bytes(good + b"\n")
                if kind != "valid":
                    spoil_text_file(path, kind, bad)
                argv += [f"--{name}", str(path)]
            runs = [Path(tmp) / "a", Path(tmp) / "b"]
            code, err = _run([*argv, "--out", str(runs[0])])
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            if code:
                assert "error" in err
                return
            assert _run([*argv, "--out", str(runs[1])]) == (0, "")
            assert _files(runs[0]) == _files(runs[1])


TRAIN_OPTIONS = {   # option: (valid values, invalid values)
    "demographics": (["gender,age,ethnicity", "none", "age", "ethnicity,gender"], ["weight"]),
    "d-model": ([8, 16], [0, 7]),
    "n-heads": ([1, 2], [0, -1]),
    "max-len": ([3, 24], [2, 0]),
    "dropout": ([0, 0.25], [1, -0.1, "nan"]),
    "batch-size": ([1, 8, 64], [0]),
    "learning-rate": ([0.01, 0.001], [0, "nan", "inf"]),
    "epochs": ([1, 2], [0, -1]),
    "patience": ([1, 5], [0]),
    "grad-clip": ([1, 0.5], [0, "inf"]),
    "seed": ([0, 5], [-1]),
}
PREPARED_FILES = {   # file: keys of one of its JSON objects, or None for vocab.txt
    "cleaned.jsonl": ["id", "tokens", "gender", "age", "ethnicity", "features"],
    "demographics.json": ["categories", "age_min", "age_max"],
    "split": ["train_ids", "val_ids", "test_ids"],
    "vocab.txt": None,
}


@st.composite
def train_case(draw):
    """Valid options, with nothing broken, one option value broken, a subset
    with no split manifest, or one prepared file spoiled."""
    broken = draw(st.sampled_from(["nothing", "nothing", "option", "subset", "file"]))
    bad_option = draw(st.sampled_from(sorted(TRAIN_OPTIONS)))
    subset = draw(st.sampled_from([2, -1] if broken == "subset" else [0, 1]))
    options = [f"--subset={subset}"] + [
        _option(draw, name, *values, broken == "option" and name == bad_option)
        for name, values in TRAIN_OPTIONS.items()]
    spoil = None
    if broken == "file":
        name = draw(st.sampled_from(sorted(PREPARED_FILES)))
        keys = PREPARED_FILES[name]
        spoil = (name, draw(json_spoil(keys)) if keys else
                 draw(st.sampled_from(["not UTF-8", "no header", "repeated token"])),
                 draw(st.integers(0, 40)))
    return options, subset, spoil


class TestTrainProperty:
    @given(train_case())
    @settings(max_examples=25, deadline=None)
    def test_any_options_and_inputs_exit_with_a_documented_code(self, pipeline, case):
        """Every run exits 0, 2 or 3 with no traceback; a valid run repeated
        writes the same checkpoint, provenance and losses."""
        options, subset, spoil = case
        with tempfile.TemporaryDirectory() as tmp:
            prep = Path(tmp) / "prep"
            shutil.copytree(pipeline["prep"], prep)
            if spoil is not None:
                name, how, line = spoil
                if name == "vocab.txt":
                    tokens = (prep / name).read_text().splitlines()
                    tokens = tokens[1:] if how == "no header" else tokens + tokens[-1:]
                    (prep / name).write_bytes((NOT_UTF8 if how == "not UTF-8" else b"")
                                              + "\n".join(tokens).encode() + b"\n")
                elif name == "cleaned.jsonl":
                    spoil_json_file(prep / name, how, line=line)
                else:
                    path = (prep / "splits" / f"subset_{subset}.json" if name == "split"
                            else prep / name)
                    spoil_json_file(path, how)
            runs = [Path(tmp) / "a", Path(tmp) / "b"]
            argv = ["train", "--data", str(prep), *options]
            code, err = _run([*argv, "--out", str(runs[0])])
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            if code:
                assert "error" in err
                return
            assert _run([*argv, "--out", str(runs[1])]) == (0, "")
            artifacts = []
            for run in runs:
                files = _files(run)
                log = [json.loads(line) for line in files.pop("trainlog.jsonl").splitlines()]
                artifacts.append((files, [{k: v for k, v in record.items() if k != "seconds"}
                                          for record in log]))
        assert artifacts[0] == artifacts[1]


REPORT_KEYS = [field.name for field in dataclasses.fields(EvaluationReport)]


@st.composite
def compare_case(draw):
    """Two or three valid report pairs, with or without embedding scores, and
    nothing broken, one option broken, the pairs mismatched, one report
    spoiled or the --config file spoiled."""
    broken = draw(st.sampled_from(["nothing", "nothing", "option", "pairs", "report",
                                   "config"]))
    n_pairs = draw(st.sampled_from([2, 3]))
    alpha = draw(st.sampled_from([0, 1, 1.5, "nan", "x"] if broken == "option"
                                 else [0.05, 0.5]))
    spoil = None
    if broken == "report":
        spoil = (draw(st.integers(0, 2 * n_pairs - 1)), draw(json_spoil(REPORT_KEYS)))
    elif broken == "config":
        spoil = ("config", draw(json_spoil(["alpha"])))
    return n_pairs, draw(st.booleans()), alpha, broken == "pairs", spoil


class TestCompareProperty:
    @given(compare_case())
    @settings(max_examples=40, deadline=None)
    def test_any_reports_exit_with_a_documented_code(self, case):
        """Every run exits 0, 2 or 3 with no traceback; a valid run repeated
        writes the same table."""
        n_pairs, embedded, alpha, mismatched, spoil = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, score in enumerate([0.5, 0.6, 0.7][:n_pairs] + [0.2, 0.4, 0.3][:n_pairs]):
                embed = (score * 0.9, score * 0.8, score * 0.85) if embedded else (None,) * 3
                report = EvaluationReport(score, score * 0.8, score * 0.6, score * 0.4,
                                          *embed, n_pairs=10)
                paths.append(Path(tmp) / f"{i}.json")
                report.to_json(paths[-1])
            argv = ["compare", "--a", *map(str, paths[:n_pairs]),
                    "--b", *map(str, paths[n_pairs:len(paths) - mismatched])]
            if spoil is not None and spoil[0] == "config":
                config = Path(tmp) / "config.json"
                config.write_bytes(spoiled_json({"alpha": alpha}, spoil[1]))
                argv += ["--config", str(config)]
            else:
                argv.append(f"--alpha={alpha}")
                if spoil is not None:
                    spoil_json_file(paths[spoil[0]], spoil[1])
            outs = [Path(tmp) / "a.json", Path(tmp) / "b.json"]
            code, err = _run([*argv, "--out", str(outs[0])])
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            if code:
                assert "error" in err
                return
            assert _run([*argv, "--out", str(outs[1])])[0] == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()


SYNTH_OPTIONS = {   # option: (valid values, invalid values)
    "n-per-stratum": ([1, 2, 3], [0, -1, 1.5, "x"]),
    "feature-dim": ([1, 4, 8], [0, -2, "x"]),
}


@st.composite
def synth_data_case(draw):
    """Valid sizes and seed, with nothing broken, one option value broken or
    the --config file, which holds the seed, spoiled."""
    broken = draw(st.sampled_from(["nothing", "nothing", "option", "seed", "config"]))
    bad_option = draw(st.sampled_from(sorted(SYNTH_OPTIONS)))
    options = [_option(draw, name, *values, broken == "option" and name == bad_option)
               for name, values in SYNTH_OPTIONS.items()]
    seed = draw(st.sampled_from([-1, "x", 2.5] if broken == "seed" else [0, 7, 2 ** 33]))
    return options, seed, draw(json_spoil(["seed"])) if broken == "config" else None


class TestSynthDataProperty:
    @given(synth_data_case())
    @settings(max_examples=30, deadline=None)
    def test_any_options_exit_with_a_documented_code(self, case):
        """Every run exits 0, 2 or 3 with no traceback; a valid run repeated
        writes the same dataset and provenance bytes."""
        options, seed, spoil = case
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_bytes(spoiled_json({"seed": seed}, spoil) if spoil
                               else json.dumps({"seed": seed}).encode())
            argv = ["synth-data", "--config", str(config), *options]
            runs = [Path(tmp) / "a", Path(tmp) / "b"]
            code, err = _run([*argv, "--out", str(runs[0])])
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            if code:
                assert "error" in err
                assert not runs[0].exists()
                return
            assert _run([*argv, "--out", str(runs[1])])[0] == 0
            assert _files(runs[0]) == _files(runs[1])
            assert sorted(_files(runs[0])) == ["dataset.jsonl", "provenance.json"]
