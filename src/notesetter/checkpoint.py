"""Deterministic binary checkpoints.

Layout: ``b"NSET"`` magic, two little-endian u32s (format version, JSON
header length), the UTF-8 JSON header, then each tensor's raw float64
little-endian bytes in header order. Tensors are sorted by name and the
header carries a CRC-32 of the concatenated payload, so identical
parameters and metadata always produce identical files.

Memory: the payload is never copied as a whole. ``load_checkpoint`` reads
the file into one buffer, checks the CRC over a view of it and copies each
tensor out of it, so it peaks at about twice the payload (file + tensors)
and frees the file buffer on return. ``save_checkpoint`` accumulates the
CRC over the arrays themselves and writes them one by one; only tensors
that are not C-contiguous little-endian float64 are converted, one copy
each. Saving writes a temporary file beside the target and renames it over
the target, so a save that fails or is interrupted leaves the previous file
as it was.

``load_checkpoint`` raises ``BadCheckpoint`` for a bad magic or version, a
truncated file, trailing bytes, and any malformed header: one that is not
UTF-8 JSON, not an object, lacks an integer ``crc32``, an object ``meta``
or a ``tensors`` list, names a tensor twice, or gives a shape that is not
two non-negative integers or does not fit the bytes left. It raises
``ChecksumMismatch`` when the payload does not match the CRC-32.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Mapping

import numpy as np

from .autodiff import Value

MAGIC = b"NSET"
FORMAT_VERSION = 1


class ChecksumMismatch(RuntimeError):
    """Raised when a checkpoint's payload does not match its stored CRC-32."""


class BadCheckpoint(RuntimeError):
    """Raised when a file is not a readable checkpoint of this format."""


def _as_array(name: str, tensor) -> np.ndarray:
    data = tensor.data if isinstance(tensor, Value) else tensor
    arr = np.ascontiguousarray(data, dtype="<f8")
    if arr.ndim != 2:
        raise ValueError(f"tensor {name!r} has shape {arr.shape}; "
                         f"checkpoints hold 2-D tensors")
    return arr


def save_checkpoint(path, tensors: Mapping[str, object], meta: dict) -> None:
    path = Path(path)
    names = sorted(tensors)
    arrays = [_as_array(name, tensors[name]) for name in names]
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(arr, crc)
    header = {
        "crc32": crc,
        "meta": meta,
        "tensors": [{"name": name, "shape": list(arr.shape)}
                    for name, arr in zip(names, arrays)],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            for arr in arrays:
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_header(path, header_bytes: bytes, payload_len: int):
    """The header's CRC-32, meta and (name, rows, cols) of each tensor, with
    every shape checked against the payload length before it is used."""
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise BadCheckpoint(f"{path}: unreadable header ({exc})") from None
    if type(header) is not dict:
        raise BadCheckpoint(f"{path}: header is not a JSON object")
    # type(...) is, not isinstance: JSON true must not pass as an integer
    for key, kind in (("crc32", int), ("meta", dict), ("tensors", list)):
        if type(header.get(key)) is not kind:
            raise BadCheckpoint(
                f"{path}: header field {key!r} missing or not a JSON "
                f"{'integer' if kind is int else kind.__name__}")
    entries, seen = [], set()
    left = payload_len
    for entry in header["tensors"]:
        if type(entry) is not dict or type(entry.get("name")) is not str:
            raise BadCheckpoint(f"{path}: tensor entry {entry!r} has no name")
        name, shape = entry["name"], entry.get("shape")
        if name in seen:
            raise BadCheckpoint(f"{path}: tensor {name!r} appears twice")
        if (type(shape) is not list or len(shape) != 2
                or any(type(n) is not int or n < 0 for n in shape)):
            raise BadCheckpoint(f"{path}: tensor {name!r} has shape {shape!r}, "
                                f"not two non-negative integers")
        rows, cols = shape
        if rows * cols * 8 > left:
            raise BadCheckpoint(f"{path}: truncated tensor {name!r}")
        left -= rows * cols * 8
        seen.add(name)
        entries.append((name, rows, cols))
    if left:
        raise BadCheckpoint(f"{path}: {left} trailing bytes")
    return header["crc32"], header["meta"], entries


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise BadCheckpoint(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise BadCheckpoint(f"{path}: unsupported format version {version}")
    start = 12 + header_len
    if len(raw) < start:
        raise BadCheckpoint(f"{path}: truncated header")
    crc, meta, entries = _parse_header(path, raw[12:start], len(raw) - start)
    if zlib.crc32(memoryview(raw)[start:]) != crc:
        raise ChecksumMismatch(f"{path}: payload CRC-32 mismatch")
    tensors: dict[str, np.ndarray] = {}
    at = start
    for name, rows, cols in entries:
        tensors[name] = np.frombuffer(
            raw, dtype="<f8", count=rows * cols, offset=at,
        ).reshape(rows, cols).copy()
        at += rows * cols * 8
    return tensors, meta


def restore_params(params: Mapping[str, Value],
                   tensors: Mapping[str, np.ndarray]) -> None:
    """Copy loaded arrays into model parameters, checking names and shapes."""
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise BadCheckpoint(
            f"parameter set mismatch: missing={missing} unexpected={extra}")
    for name, p in params.items():
        arr = tensors[name]
        if tuple(arr.shape) != p.data.shape:
            raise BadCheckpoint(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, "
                f"model {p.data.shape}")
        p.data[...] = arr
