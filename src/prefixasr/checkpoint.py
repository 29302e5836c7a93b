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
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"SLMF"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


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


def check_tensors(expected: dict[str, tuple], tensors: dict[str, np.ndarray],
                  where) -> None:
    """Raise one CheckpointError naming every tensor that `expected` (name ->
    shape) has and `tensors` lacks, that has no home in `expected`, or whose
    shape differs, each with its saved and expected shape."""
    found = {k: v.shape for k, v in tensors.items()}
    differ = [f"{k} saved {found.get(k, 'none')}, expected {expected.get(k, 'none')}"
              for k in sorted(set(expected) | set(found))
              if found.get(k) != expected.get(k)]
    if differ:
        raise CheckpointError(f"{where}: tensors differ from the model: " + "; ".join(differ))


def save_checkpoint(path, ckpt: ModelCheckpoint) -> None:
    """Stream the header and then each tensor into a temp file in the same
    directory, then rename it onto path, so an interrupted save leaves the
    previous file intact."""
    meta = {"config": ckpt.config, **ckpt.metadata}
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<4sI", MAGIC, VERSION))
            f.write(bytes.fromhex(ckpt.digest))
            f.write(struct.pack("<I", len(meta_blob)))
            f.write(meta_blob)
            f.write(struct.pack("<I", len(ckpt.tensors)))
            for name in sorted(ckpt.tensors):
                arr = np.asarray(ckpt.tensors[name])
                arr = np.asarray(arr, "<f8" if arr.dtype == np.float64 else "<f4",
                                 order="C")  # keeps 0-d shape; copies only to convert
                nb = name.encode()
                f.write(struct.pack("<H", len(nb)) + nb)
                f.write(struct.pack(f"<BB{arr.ndim}I", _DTYPE_CODES[arr.dtype], arr.ndim,
                                    *arr.shape))
                f.write(arr.data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _Reader:
    """Cursor over checkpoint bytes; reading past the end is a CheckpointError."""

    def __init__(self, data: bytes, path):
        self.data, self.path, self.off = data, path, 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated at byte {self.off}")
        self.off += n
        return self.data[self.off - n:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: bad utf-8 at byte {self.off}") from exc


def load_checkpoint(path) -> ModelCheckpoint:
    """Parse a checkpoint; any unreadable, malformed or truncated file is a
    CheckpointError."""
    try:
        r = _Reader(Path(path).read_bytes(), path)
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    try:
        magic, version = r.unpack("<4sI")
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: truncated header") from exc
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    stored_digest = r.take(32).hex()
    (meta_len,) = r.unpack("<I")
    try:
        meta = json.loads(r.text(meta_len))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: bad metadata JSON: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: metadata holds no config")
    config = meta.pop("config")
    if config_digest(config) != stored_digest:
        raise CheckpointError(f"{path}: config digest mismatch")
    (count,) = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = r.unpack("<H")
        name = r.text(nlen)
        code, ndim = r.unpack("<BB")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        dtype = _CODE_DTYPES[code]
        shape = r.unpack(f"<{ndim}I")
        payload = r.take(math.prod(shape) * dtype.itemsize)
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    if r.off != len(r.data):
        raise CheckpointError(f"{path}: {len(r.data) - r.off} bytes after the last tensor")
    return ModelCheckpoint(config=config, tensors=tensors, metadata=meta)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
