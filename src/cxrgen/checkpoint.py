"""Bit-exact model checkpointing.

A checkpoint is a directory holding ``manifest.json`` (config values,
ordered parameter names, per-tensor shape, byte offset, and sha256) plus
``params.bin``, a flat blob of little-endian 32-bit floats in row-major
order. Loading verifies every tensor's checksum, so a single corrupted byte
is detected and attributed to the tensor it sits in. Format 1 still loads.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, IntegrityError
from .model import ModelConfig, check_parameters, parameter_shapes
from .tensor import Tensor

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_VERSION = 2


def save_checkpoint(params: dict[str, Tensor], cfg: ModelConfig, path,
                    extra: dict | None = None) -> None:
    """Write params + config under ``path`` (a directory, created if needed)."""
    check_parameters(params, cfg)
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    chunks = []
    offset = 0
    for name in parameter_shapes(cfg):
        tensor = params[name]
        if not np.isfinite(tensor.data).all():
            raise ContractError(f"parameter {name!r} contains non-finite values")
        raw = np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
        entries.append({
            "name": name,
            "shape": list(tensor.shape),
            "offset": offset,
            "nbytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(),
        })
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": cfg.to_dict(),
        "blob": BLOB_NAME,
        "blob_nbytes": len(blob),
        "tensors": entries,
    }
    if extra:
        manifest["extra"] = extra
    (directory / BLOB_NAME).write_bytes(blob)
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def read_manifest(path) -> dict:
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise IntegrityError(f"no checkpoint manifest at {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"unreadable checkpoint manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IntegrityError(f"checkpoint manifest {manifest_path} is not a JSON object")
    version = manifest.get("format_version")
    # True == 1 and 1.0 == 1 in Python, so check the type before the value
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise IntegrityError(
            f"unsupported checkpoint format version {version!r}"
        )
    return manifest


def load_checkpoint(path, expect_cfg: ModelConfig | None = None
                    ) -> tuple[dict[str, Tensor], ModelConfig]:
    """Load params + config, verifying per-tensor checksums.

    Pass ``expect_cfg`` when resuming so a configuration mismatch fails
    loudly instead of producing a shape error later.
    """
    directory = Path(path)
    manifest = read_manifest(directory)
    try:
        cfg = ModelConfig.from_dict(manifest["config"])
    except (TypeError, KeyError, ConfigError) as exc:
        raise IntegrityError(f"invalid config in checkpoint manifest: {exc}") from exc
    if expect_cfg is not None and cfg != expect_cfg:
        raise ConfigError(
            "checkpoint config does not match the requested config; refusing to resume"
        )
    blob_path = directory / manifest.get("blob", BLOB_NAME)
    if not blob_path.exists():
        raise IntegrityError(f"checkpoint blob missing: {blob_path}")
    blob = blob_path.read_bytes()
    if len(blob) != manifest.get("blob_nbytes"):
        raise IntegrityError(
            f"checkpoint blob is {len(blob)} bytes, manifest says {manifest.get('blob_nbytes')}"
        )
    expected = parameter_shapes(cfg)
    stored = {}
    for name, shape in expected.items():
        # format 1 also stored query/key weights, shaped like wv, ahead of
        # each single-key attention head's wv; they are verified, then dropped
        if (manifest["format_version"] == 1 and name.endswith(".wv")
                and name[:-2] + "wq" not in expected):
            stored.update({name[:-2] + "wq": shape, name[:-2] + "wk": shape})
        stored[name] = shape
    entries = manifest.get("tensors", [])
    seen = [entry["name"] for entry in entries]
    if seen != list(stored):
        raise IntegrityError("checkpoint tensor list does not match the model's parameter set")
    params: dict[str, Tensor] = {}
    for entry in entries:
        name = entry["name"]
        shape = tuple(entry["shape"])
        if shape != stored[name]:
            raise IntegrityError(
                f"tensor {name!r} has shape {shape} in manifest, expected {stored[name]}"
            )
        start, nbytes = entry["offset"], entry["nbytes"]
        raw = blob[start:start + nbytes]
        if len(raw) != nbytes:
            raise IntegrityError(f"checkpoint blob truncated inside tensor {name!r}")
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise IntegrityError(f"checksum mismatch for tensor {name!r}")
        if name in expected:
            data = np.frombuffer(raw, dtype="<f4").reshape(shape)
            params[name] = Tensor(data.copy(), requires_grad=True)
    return params, cfg


def parameter_checksum(params: dict[str, Tensor], cfg: ModelConfig) -> str:
    """sha256 over all parameter bytes in canonical order (for logs and tests)."""
    digest = hashlib.sha256()
    for name in parameter_shapes(cfg):
        digest.update(np.ascontiguousarray(params[name].data, dtype="<f4").tobytes())
    return digest.hexdigest()
