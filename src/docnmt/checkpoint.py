"""Versioned binary checkpoint container.

Layout: 8-byte magic, uint32 format version, uint32 header length, UTF-8 JSON
header (config, trained stage groups, parameter manifest with shapes), then
the raw parameter arrays as little-endian float64 in manifest order.  Loading
verifies the manifest against a store rebuilt from the config and fails
loudly on any mismatch; a header that lacks a field or holds an invalid
config is a CheckpointError too.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import CheckpointError, ContractError
from .model.config import ModelConfig
from .model.params import ParamStore, build_params

MAGIC = b"DOCNMT\x00\x01"
FORMAT_VERSION = 1


def save_checkpoint(path, store: ParamStore, cfg: ModelConfig,
                    trained_groups: list[str]) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": cfg.to_dict(),
        "trained_groups": sorted(trained_groups),
        "params": [{"name": n, "shape": list(shape), "group": g}
                   for n, shape, g in store.manifest()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for name, _, _ in store.manifest():
            fh.write(np.ascontiguousarray(store[name].data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ParamStore, ModelConfig, list[str]]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, hlen = struct.unpack("<II", raw[8:16])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e

    try:
        cfg = ModelConfig.from_dict(header["config"])
        declared = {p["name"]: (tuple(p["shape"]), p["group"])
                    for p in header["params"]}
        trained_groups = list(header["trained_groups"])
    except KeyError as e:
        raise CheckpointError(f"{path}: header lacks {e}") from e
    except (ContractError, TypeError) as e:
        raise CheckpointError(f"{path}: invalid header: {e}") from e
    # rebuild the expected parameter layout from the config and verify
    store = build_params(cfg, np.random.default_rng(0))
    expected = {n: (tuple(shape), g) for n, shape, g in store.manifest()}
    if set(expected) != set(declared):
        missing = sorted(set(expected) - set(declared))
        extra = sorted(set(declared) - set(expected))
        raise CheckpointError(
            f"{path}: parameter set mismatch (missing {missing[:3]}, extra {extra[:3]})")
    for name, (shape, group) in expected.items():
        if declared[name] != (shape, group):
            raise CheckpointError(
                f"{path}: manifest mismatch for '{name}': "
                f"file has {declared[name]}, config implies {(shape, group)}")

    offset = 16 + hlen
    for p in header["params"]:
        name, shape = p["name"], tuple(p["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated data for '{name}'")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        store[name].data = arr.astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")

    return store, cfg, trained_groups
