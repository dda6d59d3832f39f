"""Self-describing binary container of named float64 tensors.

Layout (all integers little-endian):
  magic   b"GTPA"
  version u32 (currently 1)
  count   u32
then per tensor:
  name_len u32, name utf-8 bytes, ndim u32, dims u64 each,
  row-major little-endian IEEE-754 doubles.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"GTPA"
FORMAT_VERSION = 1


def save_archive(path, tensors):
    """Write a name -> ndarray mapping; iteration order is preserved."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def read_exact(f, n, path):
    """Exactly n bytes from binary file f, or ValueError naming path.

    The size is checked before reading, so a corrupt length field cannot
    make the read allocate more than the file holds.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValueError(f"{path}: truncated: needs more than the {left} "
                         f"bytes left at offset {f.tell()}")
    return f.read(n)


def load_archive(path):
    """Read back a name -> ndarray mapping in file order."""
    with open(path, "rb") as f:
        if read_exact(f, 4, path) != MAGIC:
            raise ValueError(f"{path}: not a parameter archive")
        version, count = struct.unpack("<II", read_exact(f, 8, path))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported archive version {version}")
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read_exact(f, 4, path))
            name = read_exact(f, name_len, path).decode("utf-8", "replace")
            if name in out:
                raise ValueError(f"{path}: repeated tensor {name!r}")
            (ndim,) = struct.unpack("<I", read_exact(f, 4, path))
            shape = struct.unpack(f"<{ndim}Q", read_exact(f, 8 * ndim, path))
            n = math.prod(shape)  # exact, where an int64 product could wrap
            data = np.frombuffer(read_exact(f, 8 * n, path), dtype="<f8")
            try:
                # with a zero dimension, a shape numpy cannot build passes
                # the size check
                data = data.reshape(shape)
            except ValueError as e:
                raise ValueError(f"{path}: tensor {name!r}: {e}") from None
            out[name] = data.astype(np.float64)
        if f.read(1):
            raise ValueError(f"{path}: data after the last of {count} tensors")
        return out
