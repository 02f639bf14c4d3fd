"""Versioned little-endian binary container for training state.

Layout: magic, format version, section count, then named sections.  Tensor
sections carry per-tensor shape metadata that is verified against payload
sizes on load, so truncation, version drift, and shape corruption surface as
distinct error kinds before any state is built.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import (CheckpointError, CheckpointShapeError, CheckpointTruncationError,
                     CheckpointVersionError)

MAGIC = b"DCKP"
FORMAT_VERSION = 1

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointTruncationError(
                f"file ends at byte {len(self.blob)}, needed {self.pos + n}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"undecodable section or tensor name: {e}") from e


def pack_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    out = [struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        code = _DTYPE_CODES[np.dtype(arr.dtype)]
        out.append(_pack_str(name))
        out.append(struct.pack("<BB", code, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payload = np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes()
        out.append(struct.pack("<Q", len(payload)))
        out.append(payload)
    return b"".join(out)


def unpack_tensors(blob: bytes) -> dict[str, np.ndarray]:
    r = _Reader(blob)
    count = r.u32()
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.string()
        code, ndim = r.u8(), r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        declared = r.u64()
        dtype = _DTYPES.get(code)
        if dtype is None:
            raise CheckpointShapeError(f"tensor {name!r}: unknown dtype code {code}")
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        if declared != expected:
            raise CheckpointShapeError(f"tensor {name!r}: shape {shape} implies "
                                       f"{expected} bytes, payload declares {declared}")
        payload = r.take(declared)
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    return out


def pack_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def unpack_json(blob: bytes):
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"undecodable JSON section: {e}") from e


def write_container(path, sections: list[tuple[str, bytes]]):
    """Write to a temporary file beside ``path``, sync it, then rename it
    into place, so a write that fails midway leaves any old file intact."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, len(sections)))
            for name, payload in sections:
                f.write(_pack_str(name))
                f.write(struct.pack("<Q", len(payload)))
                f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_container(path, required: tuple = ()) -> dict[str, bytes]:
    """Sections by name; every name in ``required`` must be present."""
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob)
    magic = r.take(4)
    if magic != MAGIC:
        raise CheckpointVersionError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(f"format version {version} unsupported "
                                     f"(expected {FORMAT_VERSION})")
    sections = {}
    for _ in range(r.u32()):
        name = r.string()
        sections[name] = r.take(r.u64())
    missing = [name for name in required if name not in sections]
    if missing:
        raise CheckpointError(f"checkpoint lacks sections {missing}")
    return sections
