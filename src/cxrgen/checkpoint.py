"""Bit-exact model checkpointing.

A checkpoint is a directory holding ``manifest.json`` (the config, each
parameter's name and sha256 in the model's order, the caller's ``extra``
payload, a JSON object that is always present, and ``extra_sha256``, the
sha256 of that payload as JSON with sorted keys and no spaces) plus
``params.bin``, the parameters as little-endian 32-bit floats in row-major
order, back to back in that order.
The layout is not stored: each tensor's shape, and so its place in the
blob, follows from the config (``model.parameter_shapes``). Loading checks
the ``extra`` payload against its checksum first, so an edited vocabulary
or codec is refused, then the config's sizes against their caps (see
``model``), then the name list against the config's, then the blob's
size against the sizes the config implies, and then every tensor's
checksum, so a single corrupted byte is detected and attributed to the
tensor it sits in, and that its values are finite, as saving requires.
Saving writes both files into a fresh sibling directory and renames it into
place, so a failure part-way leaves any checkpoint already at the path
intact. A checkpoint being replaced is first renamed aside to
``.<name>.<hex>.old`` and renamed back if the second rename fails; a
process killed between the two renames leaves it there, to be renamed back
by hand.

Saving writes format version 4, and loading reads only that version: a
manifest of any other version, or one without ``extra`` or
``extra_sha256``, is an ``IntegrityError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import uuid
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, IntegrityError
from .files import read_json_object, write_json
from .model import ModelConfig, check_parameters, parameter_shapes
from .tensor import Tensor

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_VERSION = 4


def save_checkpoint(params: dict[str, Tensor], cfg: ModelConfig, path, extra: dict) -> None:
    """Write params + config, and the caller's JSON object ``extra``, under
    ``path`` (a directory, replaced whole if it exists)."""
    check_parameters(params, cfg)
    directory = Path(path)
    entries = []
    chunks = []
    for name in parameter_shapes(cfg):
        tensor = params[name]
        if not np.isfinite(tensor.data).all():
            raise ContractError(f"parameter {name!r} contains non-finite values")
        raw = np.ascontiguousarray(tensor.data, dtype="<f4")   # hashed and written as is
        entries.append({"name": name, "sha256": hashlib.sha256(raw).hexdigest()})
        chunks.append(raw)
    manifest = {"format_version": FORMAT_VERSION, "config": dataclasses.asdict(cfg),
                "tensors": entries, "extra_sha256": _extra_digest(extra), "extra": extra}
    staging = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}")
    retired = staging.with_name(staging.name + ".old")
    staging.mkdir(parents=True)
    try:
        with open(staging / BLOB_NAME, "wb") as fh:
            fh.writelines(chunks)
        write_json(staging / MANIFEST_NAME, manifest)
        # a directory cannot be renamed onto a non-empty one: move the old aside
        if directory.exists():
            os.replace(directory, retired)
        try:
            os.replace(staging, directory)
        except BaseException:
            if retired.exists():   # put the old checkpoint back before giving up
                os.replace(retired, directory)
            raise
        shutil.rmtree(retired, ignore_errors=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def read_manifest(path, digest) -> dict:
    """The parsed ``manifest.json`` of the checkpoint at ``path``, its bytes
    added to the ``hashlib`` object ``digest`` unless it is None."""
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise IntegrityError(f"no checkpoint manifest at {manifest_path}")
    manifest = read_json_object(manifest_path, IntegrityError, digest)
    version = manifest.get("format_version")
    # True == 1 and 1.0 == 1 in Python, so check the type before the value
    if type(version) is not int or version != FORMAT_VERSION:
        raise IntegrityError(
            f"unsupported checkpoint format version {version!r}"
        )
    return manifest


def _extra_digest(extra) -> str:
    """The sha256 of ``extra`` as canonical JSON: sorted keys, no spaces."""
    canonical = json.dumps(extra, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _well_formed(entry) -> bool:
    return isinstance(entry, dict) and all(type(entry.get(key)) is str
                                           for key in ("name", "sha256"))


def load_checkpoint(path) -> tuple[dict[str, Tensor], ModelConfig]:
    """Load params + config, verifying per-tensor checksums."""
    return load_from_manifest(path, read_manifest(path, None), None)


def load_from_manifest(path, manifest: dict, digest) -> tuple[dict[str, Tensor], ModelConfig]:
    """``load_checkpoint`` given the checkpoint's ``manifest``, as
    ``read_manifest`` returned it, adding the bytes of ``params.bin`` to the
    ``hashlib`` object ``digest`` unless it is None."""
    directory = Path(path)
    if not isinstance(manifest.get("extra"), dict):
        raise IntegrityError("checkpoint manifest has no extra payload (a JSON object)")
    if manifest.get("extra_sha256") != _extra_digest(manifest["extra"]):
        raise IntegrityError("checksum mismatch for the checkpoint's extra payload")
    try:
        cfg = ModelConfig(**manifest["config"])
    except (TypeError, KeyError, ConfigError) as exc:
        raise IntegrityError(f"invalid config in checkpoint manifest: {exc}") from exc
    entries = manifest.get("tensors")
    if not isinstance(entries, list) or not all(_well_formed(entry) for entry in entries):
        raise IntegrityError("checkpoint manifest has a malformed tensor list")
    shapes = parameter_shapes(cfg)   # a bounded list: ModelConfig caps the block count
    if [entry["name"] for entry in entries] != list(shapes):
        raise IntegrityError(f"checkpoint lists {len(entries)} tensors; its config's model has "
                             f"{len(shapes)}: the tensor list does not match the model's "
                             "parameter set")
    if not (directory / BLOB_NAME).exists():
        raise IntegrityError(f"checkpoint blob {BLOB_NAME!r} missing from {directory}")
    # slices of a view copy nothing: each tensor's bytes are copied once, into its array
    blob = memoryview((directory / BLOB_NAME).read_bytes())
    if digest is not None:
        digest.update(blob)
    # Python ints: a config of huge sizes is refused here without allocating
    expected = 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(blob) != expected:
        raise IntegrityError(f"checkpoint blob is {len(blob)} bytes; its config's model "
                             f"takes {expected}")
    params: dict[str, Tensor] = {}
    start = 0   # the tensors lie back to back in the blob, in the model's order
    for entry, (name, shape) in zip(entries, shapes.items()):
        raw = blob[start:start + 4 * math.prod(shape)]
        start += len(raw)
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise IntegrityError(f"checksum mismatch for tensor {name!r}")
        data = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():   # save_checkpoint refuses these too
            raise IntegrityError(f"tensor {name!r} holds a value that is not finite")
        params[name] = Tensor(data.copy(), requires_grad=True)
    return params, cfg


def parameter_checksum(params: dict[str, Tensor], cfg: ModelConfig) -> str:
    """sha256 over all parameter bytes in canonical order (for logs and tests)."""
    digest = hashlib.sha256()
    for name in parameter_shapes(cfg):
        digest.update(np.ascontiguousarray(params[name].data, dtype="<f4"))
    return digest.hexdigest()
