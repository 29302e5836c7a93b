"""Versioned named-tensor checkpoint container.

Layout (little-endian): magic "SLMF", version u32, config digest (32 raw
sha256 bytes), metadata JSON (u32 length + utf8; holds the run config,
tokenizer table and bookkeeping), tensor count u32, then per tensor:
name (u16 length + utf8), dtype code u8 (0=f32, 1=f64), ndim u8, extents
u32 each, raw payload. Model tensors are namespaced "encoder.*", "bridge.*",
"lm.*", "lora.*"; feature normalization stats live under "frontend.*".
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"SLMF"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ModelCheckpoint:
    config: dict
    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.config)

    def namespace(self, prefix: str) -> dict[str, np.ndarray]:
        cut = len(prefix)
        return {k[cut:]: v for k, v in self.tensors.items() if k.startswith(prefix)}


def save_checkpoint(path, ckpt: ModelCheckpoint) -> None:
    """Write via a temp file in the same directory, then rename it onto path,
    so an interrupted save leaves the previous file intact."""
    meta = {"config": ckpt.config, **ckpt.metadata}
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    out = bytearray()
    out += struct.pack("<4sI", MAGIC, VERSION)
    out += bytes.fromhex(ckpt.digest)
    out += struct.pack("<I", len(meta_blob))
    out += meta_blob
    out += struct.pack("<I", len(ckpt.tensors))
    for name in sorted(ckpt.tensors):
        arr = np.asarray(ckpt.tensors[name], order="C")  # keeps 0-d shape
        if arr.dtype == np.float64:
            arr = arr.astype("<f8")
        else:
            arr = arr.astype("<f4")
        nb = name.encode()
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(bytes(out))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> ModelCheckpoint:
    data = Path(path).read_bytes()
    try:
        magic, version = struct.unpack_from("<4sI", data, 0)
    except struct.error as exc:
        raise CheckpointError(f"{path}: truncated header") from exc
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off = 8
    stored_digest = data[off:off + 32].hex()
    off += 32
    (meta_len,) = struct.unpack_from("<I", data, off)
    off += 4
    meta = json.loads(data[off:off + meta_len].decode())
    off += meta_len
    config = meta.pop("config")
    if config_digest(config) != stored_digest:
        raise CheckpointError(f"{path}: config digest mismatch")
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off:off + nlen].decode()
        off += nlen
        code, ndim = struct.unpack_from("<BB", data, off)
        off += 2
        shape = struct.unpack_from(f"<{ndim}I", data, off)
        off += 4 * ndim
        dtype = _CODE_DTYPES[code]
        n = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(data, dtype=dtype, count=n, offset=off).reshape(shape)
        off += n * dtype.itemsize
        tensors[name] = arr.copy()
    return ModelCheckpoint(config=config, tensors=tensors, metadata=meta)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
