"""Training state as a deterministic zip archive that ``numpy.load`` reads: one
stored (uncompressed) member per section, an array as ``<name>.npy``, never
pickled, or a JSON value as ``<name>.json``.  A list of arrays and numpy
scalars is one flat array: their elements, in order.  Every member has one
fixed timestamp, so equal state gives equal bytes, and a CRC-32 checked on
read."""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError, CheckpointTruncationError, CheckpointVersionError

FORMAT_VERSION = 4
_VERSION = "format_version"
_DATE_TIME = (1980, 1, 1, 0, 0, 0)
_END_RECORD_SIZE = 22   # without a comment, which a save never writes
_DAMAGE = (zipfile.BadZipFile, EOFError, ValueError, NotImplementedError, RuntimeError,
           OSError, zlib.error)   # what zipfile and numpy.lib.format raise on damage


def _value(member: str, payload: bytes):
    if member.endswith(".npy"):
        return np.lib.format.read_array(io.BytesIO(payload), allow_pickle=False)
    return json.loads(payload)


def _full_length(f) -> bool:
    """Whether the file still ends in the zip end record that a save writes
    last: its signature is in place, or its directory offset + directory
    size + record length equals the file size.  A cut loses the record; one
    flipped bit breaks at most one of the two."""
    size = f.seek(0, os.SEEK_END)
    f.seek(max(size - _END_RECORD_SIZE, 0))
    tail = f.read()
    return len(tail) == _END_RECORD_SIZE and (   # directory size and offset at bytes 12-19
        tail.startswith(b"PK\x05\x06")
        or sum(struct.unpack_from("<2L", tail, 12)) + _END_RECORD_SIZE == size)


def _write_flat(out, arrays: list):
    """The .npy bytes of the concatenated, raveled ``arrays``, streamed from
    each array without building the concatenation."""
    dtype = np.result_type(*arrays)
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
        "shape": (sum(a.size for a in arrays),)})
    for a in arrays:
        out.write(np.ascontiguousarray(a, dtype=dtype))


def write_atomic(path, write):
    """Call ``write`` on a binary file opened under a temporary name beside
    ``path``, sync the file, then rename it into place, so a write that
    fails midway leaves any old file at ``path`` intact and no temporary
    file behind."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_container(path, sections: dict):
    """Write ``sections`` (name -> array, list of arrays or JSON value) to
    ``path`` through write_atomic."""
    def write(f):
        with zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as zf:
            for name, value in {_VERSION: FORMAT_VERSION, **sections}.items():
                if isinstance(value, np.ndarray):
                    with zf.open(zipfile.ZipInfo(f"{name}.npy", _DATE_TIME), "w") as out:
                        np.lib.format.write_array(out, value, allow_pickle=False)
                elif isinstance(value, list) and value and all(
                        isinstance(a, (np.ndarray, np.generic)) for a in value):
                    with zf.open(zipfile.ZipInfo(f"{name}.npy", _DATE_TIME), "w") as out:
                        _write_flat(out, value)
                else:
                    zf.writestr(zipfile.ZipInfo(f"{name}.json", _DATE_TIME),
                                json.dumps(value, sort_keys=True, separators=(",", ":")))

    write_atomic(path, write)


def read_container(path) -> dict:
    """Sections by name, arrays and JSON values.  A damaged file raises a
    CheckpointError kind."""
    with open(path, "rb") as f:
        head = f.read(4)
        if head == b"DCKP":
            raise CheckpointVersionError(f"{path} is a format-1 'DCKP' checkpoint; this "
                                         f"version reads only format {FORMAT_VERSION}")
        try:
            zf = zipfile.ZipFile(f)
        except _DAMAGE as e:   # the zip directory comes last, so a cut loses it
            cut = b"PK\x03\x04".startswith(head) and not _full_length(f)
            raise (CheckpointTruncationError if cut else CheckpointError)(
                f"{path}: no readable zip directory ({e})") from e
        try:
            with zf:
                sections = {os.path.splitext(i.filename)[0]: _value(i.filename, zf.read(i))
                            for i in zf.infolist()}
        except _DAMAGE as e:
            raise CheckpointError(f"{path}: damaged member: {e}") from e
    if (version := sections.pop(_VERSION, None)) != FORMAT_VERSION:
        raise CheckpointVersionError(f"{path}: format {version!r}, not {FORMAT_VERSION}")
    return sections
