"""Self-describing binary container of named float32 and float64 tensors.

Layout (all integers little-endian):
  magic   b"GTPA"
  version u32 (currently 2)
  count   u32
then per tensor:
  name_len u32, name utf-8 bytes, dtype u32 (a DTYPES code), ndim u32,
  dims u64 each, row-major little-endian IEEE-754 values of that dtype.
Version 1, still read, has no dtype code and stores every tensor as float64.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"GTPA"
FORMAT_VERSION = 2
DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}  # code -> stored dtype


def save_archive(path, tensors):
    """Write a name -> ndarray mapping in order: float32 as float32, all else as float64."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(tensors)))
        for name, arr in tensors.items():
            code = 1 if np.asarray(arr).dtype == np.float32 else 2
            arr = np.ascontiguousarray(arr, dtype=DTYPES[code])
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<II", code, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


def read_exact(f, n, path):
    """Exactly n bytes from binary file f as a bytearray, or ValueError naming path.

    The size is checked before reading, so a corrupt length field cannot
    make the read allocate more than the file holds.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValueError(f"{path}: truncated: needs more than the {left} "
                         f"bytes left at offset {f.tell()}")
    out = bytearray(n)
    f.readinto(out)
    return out


def load_archive(path):
    """Read back a name -> ndarray mapping in file order, each in its stored dtype."""
    with open(path, "rb") as f:
        if read_exact(f, 4, path) != MAGIC:
            raise ValueError(f"{path}: not a parameter archive")
        version, count = struct.unpack("<II", read_exact(f, 8, path))
        if version not in (1, FORMAT_VERSION):
            raise ValueError(f"{path}: unsupported archive version {version}")
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read_exact(f, 4, path))
            name = read_exact(f, name_len, path).decode("utf-8", "replace")
            if name in out:
                raise ValueError(f"{path}: repeated tensor {name!r}")
            (code,) = (2,) if version == 1 else struct.unpack("<I", read_exact(f, 4, path))
            if code not in DTYPES:
                raise ValueError(f"{path}: tensor {name!r}: unknown dtype code {code}")
            (ndim,) = struct.unpack("<I", read_exact(f, 4, path))
            shape = struct.unpack(f"<{ndim}Q", read_exact(f, 8 * ndim, path))
            n = math.prod(shape)  # exact, where an int64 product could wrap
            raw = read_exact(f, DTYPES[code].itemsize * n, path)
            try:
                # with a zero dimension, a shape numpy cannot build passes
                # the size check
                out[name] = np.frombuffer(raw, DTYPES[code]).reshape(shape)
            except ValueError as e:
                raise ValueError(f"{path}: tensor {name!r}: {e}") from None
        if f.read(1):
            raise ValueError(f"{path}: data after the last of {count} tensors")
        return out
