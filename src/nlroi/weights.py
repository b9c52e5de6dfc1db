"""Bit-exact binary weight files.

Layout (all integers little-endian):

    magic   8 bytes  ASCII "NLROIW02"
    count   u32      number of tensors
    per tensor:
        name_len  u16
        name      UTF-8, name_len bytes
        rank      u8
        dims      rank x u32
        values    product(dims) x f64, row-major
    crc     u32      CRC-32 (zlib.crc32) of every byte before it

Values are stored exactly as 64-bit IEEE-754, so save -> load returns
bitwise-identical tensors. Loading checks the magic, then the CRC-32, and
only then reads the tensors: a wrong magic (an ``NLROIW01`` file, which has
no CRC, included) and duplicate names are format errors; a CRC mismatch,
any short read and trailing bytes are corruption. A CRC-32 catches every
single-bit flip and every burst of up to 32 bits.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import WeightsCorruptionError, WeightsFormatError

MAGIC = b"NLROIW02"


def save_weights(path, named) -> None:
    """Write named tensors in the given order. ``named`` is a dict or a
    sequence of (name, array) pairs."""
    pairs = list(named.items()) if isinstance(named, dict) else list(named)
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise WeightsFormatError(f"duplicate tensor names: {dupes}")
    buf = bytearray(MAGIC)
    buf += struct.pack("<I", len(pairs))
    for name, arr in pairs:
        # asarray, not ascontiguousarray: the latter promotes rank-0 to (1,)
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise WeightsFormatError(f"tensor name too long ({len(encoded)} bytes)")
        if arr.ndim > 0xFF:
            raise WeightsFormatError(f"rank {arr.ndim} exceeds the format's u8 field")
        buf += struct.pack("<H", len(encoded))
        buf += encoded
        buf += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            if dim >= 1 << 32:
                raise WeightsFormatError(f"dimension {dim} exceeds the format's u32 field")
            buf += struct.pack("<I", dim)
        buf += arr.astype("<f8", copy=False).tobytes(order="C")
    buf += struct.pack("<I", zlib.crc32(buf))
    with open(path, "wb") as fh:
        fh.write(buf)


def load_weights(path) -> dict:
    """Read tensors back in file order; see the module docstring for errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 4:
        raise WeightsCorruptionError(f"truncated file: {len(data)} bytes hold no magic and CRC-32")
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        if magic[:-2] == MAGIC[:-2]:
            raise WeightsFormatError(
                f"weights format {magic.decode('latin-1')} is not read, only {MAGIC.decode()}"
            )
        raise WeightsFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    data, (found,) = data[:-4], struct.unpack("<I", data[-4:])
    crc = zlib.crc32(data)
    if crc != found:
        raise WeightsCorruptionError(
            f"CRC-32 mismatch: the trailer holds {found:#010x}, the bytes give {crc:#010x}"
        )
    offset = len(MAGIC)

    def take(count: int, what: str) -> bytes:
        nonlocal offset
        if offset + count > len(data):
            raise WeightsCorruptionError(
                f"truncated file: needed {count} bytes for {what} at offset {offset}"
            )
        chunk = data[offset : offset + count]
        offset += count
        return chunk

    (count,) = struct.unpack("<I", take(4, "tensor count"))
    out: dict = {}
    for t in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"name length of tensor {t}"))
        try:
            name = take(name_len, f"name of tensor {t}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightsFormatError(f"tensor {t} name is not valid UTF-8") from exc
        (rank,) = struct.unpack("<B", take(1, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dimensions of {name!r}"))
        total = math.prod(dims)
        raw = take(8 * total, f"values of {name!r}")
        if name in out:
            raise WeightsFormatError(f"duplicate tensor name {name!r}")
        out[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    if offset != len(data):
        raise WeightsCorruptionError(
            f"{len(data) - offset} trailing bytes after the declared {count} tensors"
        )
    return out
