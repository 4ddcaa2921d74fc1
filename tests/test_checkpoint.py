"""Checkpoint round trips are byte-exact; corruption, malformed manifests
and an edited ``extra`` are detected and attributed; an interrupted save
leaves the previous checkpoint loadable; format 3 loads through the same
code as format 4; formats 1 and 2 are rejected, and the weights they hold still
give the outputs recorded when they were written."""

import builtins
import hashlib
import io
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import cxrgen.checkpoint
from cxrgen.checkpoint import (FORMAT_VERSION, load_checkpoint, parameter_checksum,
                               read_manifest, save_checkpoint)
from cxrgen.cli import main
from cxrgen.errors import ContractError, IntegrityError, ShapeError
from cxrgen.model import (ModelConfig, decoder_forward, encode_inputs, generate,
                          init_parameters, parameter_shapes)
from cxrgen.tensor import Tensor

from oracles import legacy_checkpoint

# A format-1 checkpoint of CFG written by the format-1 code (commit ae46b1b),
# which still stored query/key weights for the single-key attention blocks.
# expected.json holds that code's logits and greedy ids for one fixed input.
V1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1"
# A format-2 checkpoint of CFG written by the format-2 code (commit f9b8c02),
# which stored one tensor per head and role; expected.json as for format 1.
V2_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v2"

CFG = ModelConfig(feature_dim=6, d_model=8, d_embed=8, n_heads=2, vocab_size=15,
                  max_len=6, demographic_dim=4, dropout_rate=0.0)


@pytest.fixture
def params():
    return init_parameters(CFG, seed=3)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Prepared data and a checkpoint that ``train`` wrote from it, which
    ``generate`` decodes (exit 0)."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["synth-data", "--out", str(root / "corpus"), "--seed", "2",
                 "--n-per-stratum", "2", "--feature-dim", "6"]) == 0
    assert main(["prepare-data", "--data", str(root / "corpus" / "dataset.jsonl"),
                 "--out", str(root / "prep"), "--seed", "3", "--vocab-cap", "40"]) == 0
    assert main(["train", "--data", str(root / "prep"), "--out", str(root / "run"),
                 "--d-model", "8", "--n-heads", "2", "--max-len", "12", "--dropout", "0",
                 "--batch-size", "8", "--epochs", "1", "--seed", "1"]) == 0
    return {"prep": root / "prep", "checkpoint": root / "run" / "best"}


def _generate(checkpoint, data, out):
    return main(["generate", "--checkpoint", str(checkpoint), "--data", str(data),
                 "--out", str(out), "--temperature", "0"])


def _layout(cfg):
    """Each tensor's (offset, nbytes) in ``params.bin``, from the config alone."""
    layout, offset = {}, 0
    for name, shape in parameter_shapes(cfg).items():
        layout[name] = (offset, 4 * math.prod(shape))
        offset += layout[name][1]
    return layout


def test_round_trip_bit_exact(tmp_path, params):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    loaded, cfg = load_checkpoint(tmp_path / "ckpt")
    assert cfg == CFG
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes()
    assert parameter_checksum(loaded, cfg) == parameter_checksum(params, CFG)


def test_round_trip_preserves_generation(tmp_path, params):
    features = np.linspace(-1, 1, 6)
    demo = np.eye(4)[2]
    before = generate(features, demo, params, CFG, temperature=0.5, seed=11)
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    loaded, cfg = load_checkpoint(tmp_path / "ckpt")
    after = generate(features, demo, loaded, cfg, temperature=0.5, seed=11)
    assert before == after


def test_manifest_lists_every_parameter_exactly_once(tmp_path, params):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    manifest = read_manifest(tmp_path / "ckpt", None)
    names = [entry["name"] for entry in manifest["tensors"]]
    assert len(names) == len(set(names))
    assert set(names) == set(params)


def test_single_byte_corruption_detected_with_tensor_name(tmp_path, params):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    blob_path = tmp_path / "ckpt" / "params.bin"
    blob = bytearray(blob_path.read_bytes())
    names = list(parameter_shapes(CFG))
    victim = names[len(names) // 2]
    offset, nbytes = _layout(CFG)[victim]
    blob[offset + nbytes // 2] ^= 0xFF
    blob_path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match=victim):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("victim_name", ["visual.attn.wv", "fusion.attn.wo",
                                         "dec0.self_attn.wk", "dec0.cross_attn.wv"])
def test_single_byte_corruption_of_an_attention_matrix_detected(tmp_path, params,
                                                                 victim_name):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    blob_path = tmp_path / "ckpt" / "params.bin"
    blob = bytearray(blob_path.read_bytes())
    blob[_layout(CFG)[victim_name][0] + 1] ^= 0x10
    blob_path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match=victim_name):
        load_checkpoint(tmp_path / "ckpt")


def test_failed_save_leaves_the_previous_checkpoint_loadable(tmp_path, params, monkeypatch):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    before = parameter_checksum(params, CFG)
    newer = init_parameters(CFG, seed=4)
    written = []

    def failing_dump(manifest, fh, **kwargs):
        written.extend(path.name for path in Path(fh.name).parent.iterdir())
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(newer, CFG, tmp_path / "ckpt")
    monkeypatch.undo()
    assert "params.bin" in written
    loaded, cfg = load_checkpoint(tmp_path / "ckpt")
    assert parameter_checksum(loaded, cfg) == before
    assert [path.name for path in tmp_path.iterdir()] == ["ckpt"]


@pytest.mark.parametrize("error", [OSError("rename failed"), KeyboardInterrupt()],
                         ids=["OSError", "KeyboardInterrupt"])
def test_save_interrupted_between_its_renames_keeps_the_previous_checkpoint(
        tmp_path, params, monkeypatch, error):
    """The old checkpoint is moved aside by the first rename; when the second
    one raises, it is moved back before the error propagates."""
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    before = parameter_checksum(params, CFG)
    real_replace = os.replace
    calls = []

    def replace(src, dst):
        calls.append((Path(src).name, Path(dst).name))
        if len(calls) == 2:
            raise error
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(type(error)):
        save_checkpoint(init_parameters(CFG, seed=4), CFG, tmp_path / "ckpt")
    monkeypatch.undo()
    assert len(calls) == 3 and calls[2][1] == "ckpt"
    loaded, cfg = load_checkpoint(tmp_path / "ckpt")
    assert parameter_checksum(loaded, cfg) == before
    assert [path.name for path in tmp_path.iterdir()] == ["ckpt"]


def test_save_replaces_an_existing_checkpoint(tmp_path, params):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    newer = init_parameters(CFG, seed=4)
    save_checkpoint(newer, CFG, tmp_path / "ckpt")
    loaded, cfg = load_checkpoint(tmp_path / "ckpt")
    assert parameter_checksum(loaded, cfg) == parameter_checksum(newer, CFG)
    assert [path.name for path in tmp_path.iterdir()] == ["ckpt"]
    (tmp_path / "plain").mkdir()   # the checkpoint directory gets the usual umask mode
    assert (tmp_path / "ckpt").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_missing_manifest(tmp_path):
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "nothing")


def test_garbage_manifest(tmp_path):
    (tmp_path / "ckpt").mkdir()
    (tmp_path / "ckpt" / "manifest.json").write_text("{not json")
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("payload", ["[1]", "2", "null", '"manifest"'])
def test_manifest_must_be_a_json_object(tmp_path, params, payload):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    (tmp_path / "ckpt" / "manifest.json").write_text(payload)
    with pytest.raises(IntegrityError, match="not a JSON object"):
        read_manifest(tmp_path / "ckpt", None)
    with pytest.raises(IntegrityError, match="not a JSON object"):
        load_checkpoint(tmp_path / "ckpt")


def test_non_finite_parameters_rejected(tmp_path, params):
    params["classifier.b"].data[0] = np.nan
    with pytest.raises(ContractError, match="classifier.b"):
        save_checkpoint(params, CFG, tmp_path / "ckpt")


def test_wrong_parameter_set_rejected(tmp_path, params):
    params["classifier.b"] = Tensor(np.zeros(16), requires_grad=True)
    with pytest.raises(ShapeError, match="classifier.b"):
        save_checkpoint(params, CFG, tmp_path / "ckpt")
    del params["classifier.b"]
    with pytest.raises(ContractError):
        save_checkpoint(params, CFG, tmp_path / "ckpt")
    assert not (tmp_path / "ckpt").exists()


def test_extra_payload_round_trip(tmp_path, params):
    save_checkpoint(params, CFG, tmp_path / "ckpt", extra={"vocab": ["<pad>", "x"]})
    manifest = read_manifest(tmp_path / "ckpt", None)
    assert manifest["extra"]["vocab"] == ["<pad>", "x"]


def _first_entry(manifest):
    return manifest["tensors"][0]


@pytest.mark.parametrize("corrupt", [
    lambda m: _first_entry(m).pop("sha256"),
    lambda m: _first_entry(m).update(name=5),
    lambda m: m["tensors"].__setitem__(0, [1]),
    lambda m: m.update(tensors=5),
], ids=["no-sha256", "name-not-a-string", "entry-not-an-object", "tensors-not-a-list"])
def test_malformed_manifest_entry_is_integrity_error(tmp_path, params, corrupt):
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    corrupt(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("blob", ["outside", "../outside.bin"], ids=["absolute", "dotdot"])
def test_blob_outside_the_checkpoint_is_never_opened(tmp_path, params, monkeypatch, blob):
    """The blob is always ``params.bin``: a ``blob`` key in the manifest,
    here naming a copy of the blob beside the checkpoint, is not read, and
    that file is never opened."""
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    outside = tmp_path / "outside.bin"
    outside.write_bytes((tmp_path / "ckpt" / "params.bin").read_bytes())
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["blob"] = str(outside) if blob == "outside" else blob
    manifest_path.write_text(json.dumps(manifest))
    opened = []

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.realpath(file))
        return real_open(file, *args, **kwargs)

    real_open = io.open
    monkeypatch.setattr(io, "open", recording_open)   # what pathlib opens with
    monkeypatch.setattr(builtins, "open", recording_open)
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    assert parameter_checksum(loaded, CFG) == parameter_checksum(params, CFG)
    assert os.path.realpath(outside) not in opened
    assert os.path.realpath(tmp_path / "ckpt" / "params.bin") in opened


@pytest.mark.parametrize("name, change", [
    (None, None),
    ("dec0.self_attn.wq", lambda entry: {"nbytes": entry["nbytes"] - 4}),
    ("classifier.b", lambda entry: {"nbytes": entry["nbytes"] - 2}),
    ("visual.feat_norm.gain", lambda entry: {"offset": -2 * entry["nbytes"]}),
], ids=["on-layout", "short-nbytes", "nbytes-not-a-multiple-of-4", "negative-offset"])
def test_format_3_loads_through_the_same_code(trained, tmp_path, name, change):
    """A format-3 manifest also stored the blob's name and size and each
    tensor's shape, offset and size. The loader reads none of them, so a
    format-3 checkpoint, even one whose stored layout is off, loads the
    same parameters and generates the same reports as the format-4 one."""
    checkpoint = tmp_path / "v3"
    shutil.copytree(trained["checkpoint"], checkpoint)
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    cfg = ModelConfig.from_dict(manifest["config"])
    layout = _layout(cfg)
    manifest.update(format_version=3, blob="params.bin",
                    blob_nbytes=(checkpoint / "params.bin").stat().st_size)
    for entry, (entry_name, shape) in zip(manifest["tensors"], parameter_shapes(cfg).items()):
        offset, nbytes = layout[entry_name]
        entry.update(shape=list(shape), offset=offset, nbytes=nbytes)
        if entry_name == name:
            entry.update(change(entry))
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    loaded, loaded_cfg = load_checkpoint(checkpoint)
    saved, saved_cfg = load_checkpoint(trained["checkpoint"])
    assert loaded_cfg == saved_cfg
    assert {n: p.data.tobytes() for n, p in loaded.items()} \
        == {n: p.data.tobytes() for n, p in saved.items()}
    assert _generate(trained["checkpoint"], trained["prep"], tmp_path / "gen4") == 0
    assert _generate(checkpoint, trained["prep"], tmp_path / "gen3") == 0
    assert (tmp_path / "gen3" / "hyp.txt").read_bytes() \
        == (tmp_path / "gen4" / "hyp.txt").read_bytes()


def _flip_middle_byte(blob, manifest):
    victim = manifest["tensors"][len(manifest["tensors"]) // 2]["name"]
    offset, nbytes = _layout(ModelConfig.from_dict(manifest["config"]))[victim]
    blob[offset + nbytes // 2] ^= 0xFF
    return f"checksum mismatch for tensor {victim!r}"


def _swap_first_tensors(blob, manifest):
    """Swap the bytes of the first two tensors, which have one shape."""
    (a, n), (b, _) = list(_layout(ModelConfig.from_dict(manifest["config"])).values())[:2]
    blob[a:a + n], blob[b:b + n] = blob[b:b + n], blob[a:a + n]
    return f"checksum mismatch for tensor {manifest['tensors'][0]['name']!r}"


def _swap_first_names(manifest):
    first, second = manifest["tensors"][:2]
    first["name"], second["name"] = second["name"], first["name"]


@pytest.mark.parametrize("spoil, message", [
    (lambda blob, m: blob.__delitem__(slice(-10, None)), "bytes; its config's model takes"),
    (_flip_middle_byte, None),
    (_swap_first_tensors, None),
    (lambda blob, m: m.update(tensors=m["tensors"][:-1]), "tensors; its config's model has"),
    (lambda blob, m: _swap_first_names(m), "does not match the model's parameter set"),
    (lambda blob, m: m["tensors"].__setitem__(0, [1]), "malformed tensor list"),
], ids=["truncated", "flipped-byte", "swapped-tensors", "one-tensor-short", "names-swapped",
        "malformed-entry"])
def test_every_refusal_exits_3_through_generate(trained, tmp_path, capsys, spoil, message):
    """One change to a checkpoint that ``generate`` otherwise decodes is
    refused with exit 3 and its message, with no traceback and nothing
    written. Appended bytes, a config of other sizes and a ``max_len`` over
    the cap have their own tests through ``generate``."""
    checkpoint = tmp_path / "ckpt"
    shutil.copytree(trained["checkpoint"], checkpoint)
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    blob = bytearray((checkpoint / "params.bin").read_bytes())
    message = spoil(blob, manifest) or message
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    (checkpoint / "params.bin").write_bytes(bytes(blob))
    assert _generate(checkpoint, trained["prep"], tmp_path / "gen") == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "gen").exists()


def test_bytes_past_the_last_tensor_are_integrity_error(tmp_path, params, capsys):
    """Bytes appended to the blob are refused: the tensors must end where
    the blob does."""
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    with open(tmp_path / "ckpt" / "params.bin", "ab") as fh:
        fh.write(bytes(12))
    size = sum(nbytes for _, nbytes in _layout(CFG).values())
    with pytest.raises(IntegrityError,
                       match=f"blob is {size + 12} bytes; its config's model takes {size}"):
        load_checkpoint(tmp_path / "ckpt")
    assert main(["generate", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path),
                 "--out", str(tmp_path / "gen")]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("version", [True, 2.0, "2", None])
def test_format_version_must_be_an_int(tmp_path, params, version):
    """JSON true equals 1 in Python and 2.0 equals 2; neither is a format version."""
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = version
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError, match="format version"):
        load_checkpoint(tmp_path / "ckpt")


def _legacy_weights_give_identical_outputs(checkpoint, version):
    expected = json.loads((checkpoint / "expected.json").read_text())
    assert json.loads((checkpoint / "manifest.json").read_text())["format_version"] == version
    loaded, cfg = legacy_checkpoint(checkpoint)
    assert cfg == CFG
    assert list(loaded) == list(init_parameters(CFG))
    features, demo = np.asarray(expected["features"]), np.asarray(expected["demo"])
    hybrid = encode_inputs(features, demo, loaded, cfg)
    logits = decoder_forward(expected["prefix"], hybrid, loaded, cfg).data
    reference = np.asarray(expected["logits"])
    # the heads' blocks are joined into one product per role, so BLAS may
    # round differently in the last bits
    np.testing.assert_allclose(logits, reference, rtol=0,
                               atol=1e-6 * np.abs(reference).max())
    assert generate(features, demo, loaded, cfg, temperature=0.0) == expected["greedy_ids"]


def test_v1_checkpoint_loads_with_identical_outputs():
    """Through the test-side reader: the package rejects format 1."""
    _legacy_weights_give_identical_outputs(V1_CHECKPOINT, 1)


def test_v2_checkpoint_loads_with_identical_outputs():
    """Through the test-side reader: the package rejects format 2."""
    _legacy_weights_give_identical_outputs(V2_CHECKPOINT, 2)


@pytest.mark.parametrize("checkpoint, version", [(V1_CHECKPOINT, 1), (V2_CHECKPOINT, 2)],
                         ids=["v1", "v2"])
def test_legacy_format_is_rejected_with_its_version(tmp_path, capsys, checkpoint, version):
    message = f"unsupported checkpoint format version {version}"
    with pytest.raises(IntegrityError, match=message):
        load_checkpoint(checkpoint)
    assert main(["generate", "--checkpoint", str(checkpoint), "--data", str(tmp_path),
                 "--out", str(tmp_path / "hyp.txt")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "hyp.txt").exists()


def test_format_4_stores_each_tensors_name_and_checksum(tmp_path, params):
    """The layout follows from the config, so the manifest stores only what
    the loader cannot derive."""
    save_checkpoint(params, CFG, tmp_path / "ckpt", extra={"vocab": ["<pad>", "x"]})
    manifest = read_manifest(tmp_path / "ckpt", None)
    assert manifest["format_version"] == FORMAT_VERSION == 4
    assert manifest.keys() == {"format_version", "config", "tensors", "extra", "extra_sha256"}
    assert all(entry.keys() == {"name", "sha256"} for entry in manifest["tensors"])
    assert not any(".h0." in entry["name"] for entry in manifest["tensors"])


@pytest.mark.parametrize("extra", [None, {}, {"vocab": ["<pad>", "x"],
                                               "codec": {"b": 1, "a": 0.5}}])
def test_extra_sha256_is_the_digest_of_its_canonical_json(tmp_path, params, extra):
    """Sorted keys and no spaces; a checkpoint saved without ``extra``
    records the digest of ``{}``."""
    save_checkpoint(params, CFG, tmp_path / "ckpt", extra=extra)
    manifest = read_manifest(tmp_path / "ckpt", None)
    canonical = json.dumps(extra or {}, sort_keys=True, separators=(",", ":"))
    assert manifest["extra_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert manifest.get("extra", {}) == (extra or {})
    load_checkpoint(tmp_path / "ckpt")


def _last_token_to_x(extra):
    extra["vocab"][-1] = "x"


def _move_age_max(extra):
    extra["codec"]["age_max"] += 1


@pytest.mark.parametrize("edit", [_last_token_to_x, _move_age_max],
                         ids=["last-token-x", "age_max-moved"])
def test_an_edited_extra_exits_3_through_generate(trained, tmp_path, capsys, edit):
    """The vocabulary and the codec live in ``extra``, outside every tensor's
    checksum: without ``extra_sha256`` each edit here decodes with exit 0,
    under a vocabulary or age scale the model was not trained with. With it,
    the edit exits 3."""
    checkpoint = tmp_path / "ckpt"
    shutil.copytree(trained["checkpoint"], checkpoint)
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    edit(manifest["extra"])
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    assert _generate(checkpoint, trained["prep"], tmp_path / "gen") == 3
    err = capsys.readouterr().err
    assert "checksum mismatch for the checkpoint's extra payload" in err
    assert "Traceback" not in err and not (tmp_path / "gen").exists()


def test_format_4_without_extra_sha256_loads_and_generates_the_same(trained, tmp_path):
    """A manifest written before ``extra_sha256`` was recorded loads
    unchecked and decodes exactly as with it."""
    checkpoint = tmp_path / "ckpt"
    shutil.copytree(trained["checkpoint"], checkpoint)
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    del manifest["extra_sha256"]
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    assert _generate(trained["checkpoint"], trained["prep"], tmp_path / "gen-with") == 0
    assert _generate(checkpoint, trained["prep"], tmp_path / "gen-without") == 0
    assert (tmp_path / "gen-with" / "hyp.txt").read_bytes() \
        == (tmp_path / "gen-without" / "hyp.txt").read_bytes()


@pytest.mark.parametrize("change", [{"d_model": 16, "d_embed": 16}, {"feature_dim": 10 ** 15}],
                         ids=["d_model-8-to-16", "feature_dim-1e15"])
def test_config_of_other_sizes_is_refused_before_any_parameter_is_built(
        tmp_path, params, monkeypatch, capsys, change):
    """A config changed to a model with the same tensor names but other
    sizes fails the blob's size check, taken in Python ints, before any
    parameter array is built."""
    save_checkpoint(params, CFG, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"].update(change)
    manifest_path.write_text(json.dumps(manifest))
    built = []
    monkeypatch.setattr(cxrgen.checkpoint, "Tensor", lambda *args, **_: built.append(args))
    assert _generate(tmp_path / "ckpt", tmp_path, tmp_path / "gen") == 3
    err = capsys.readouterr().err
    assert "its config's model takes" in err and "Traceback" not in err
    assert built == []
    assert not (tmp_path / "gen").exists()
