"""Sign binarization, Hamming retrieval, AP/MAP evaluation, the
random-hyperplane LSH baseline, and the penultimate-value histogram."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .archive import read_exact

CODE_MAGIC = b"GTBC"
CODE_FORMAT_VERSION = 1


@dataclass
class CodeSet:
    """Bit matrix plus ids and labels for one partition."""

    bits: np.ndarray  # (n, width) uint8 in {0,1}
    ids: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int64

    @property
    def width(self):
        return self.bits.shape[1]

    def __len__(self):
        return len(self.ids)


def binarize_sign(r):
    """bit_i = 1 if r_i > 0 else 0; exact zeros map to 0."""
    return (np.asarray(r) > 0).astype(np.uint8)


def retrieve(query_bits, index):
    """Index ids ranked by ascending Hamming distance, ties by ascending id."""
    if len(index) == 0:
        raise ValueError("cannot retrieve from an empty index")
    query_bits = np.asarray(query_bits)
    if query_bits.shape[-1] != index.width:
        raise ValueError(
            f"code widths differ: {query_bits.shape[-1]} vs {index.width}")
    distances = np.count_nonzero(index.bits != query_bits, axis=1)
    order = np.lexsort((index.ids, distances))
    return index.ids[order]


def average_precision(ranking, relevant):
    """Mean of precision values at the ranks of relevant items (full ranking)."""
    relevant = np.unique(list(relevant))
    if len(relevant) == 0:
        raise ValueError("average precision needs a non-empty relevant set")
    missing = relevant[~np.isin(relevant, ranking)]
    if len(missing):
        raise ValueError(f"relevant ids not in the ranking: {missing[:5].tolist()}")
    hit_ranks = np.flatnonzero(np.isin(ranking, relevant)) + 1
    precisions = np.arange(1, len(hit_ranks) + 1) / hit_ranks
    # cumsum, not sum: it adds in rank order, so the result equals a per-item loop's
    return float(np.cumsum(precisions)[-1]) / len(relevant)


def map_from_codes(test, dev):
    """MAP of retrieving same-label dev codes for each test code.

    Test codes with no same-label dev tweet are excluded; their count is
    reported alongside the MAP.
    """
    aps = []
    for bits, lab in zip(test.bits, test.labels):
        relevant = dev.ids[dev.labels == lab]
        if len(relevant):
            aps.append(average_precision(retrieve(bits, dev), relevant))
    return (float(np.mean(aps)) if aps else 0.0), len(test) - len(aps)


def compute_representations(model, columns):
    """Penultimate vectors and labels of a column table's rows (eval mode)."""
    return model.infer(columns)[1], columns["label_id"]


def encode_code_set(model, columns):
    reps, labels = compute_representations(model, columns)
    return CodeSet(bits=binarize_sign(reps),
                   ids=np.arange(len(labels), dtype=np.int64),
                   labels=labels)


class LshModel:
    """Random-hyperplane hashing: bit_i = 1 iff hyperplane_i . x > 0."""

    def __init__(self, n_bits, dim, rng):
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        self.hyperplanes = rng.standard_normal((n_bits, dim))

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.hyperplanes.shape[1]:
            raise ValueError(
                f"input dim {x.shape[-1]} does not match hyperplanes "
                f"dim {self.hyperplanes.shape[1]}")
        return (x @ self.hyperplanes.T > 0).astype(np.uint8)


def raw_feature_matrix(columns, char_vocab_size, n_timezones):
    """Data-independent input rows of a column table for the LSH baseline:
    scalar time features, one-hot timezone, and character-count bags of
    location and text, PAD included, each divided by its total (at least 1)."""
    n = len(columns["label_id"])
    rows = np.arange(n)
    tz = np.zeros((n, n_timezones))
    tz[rows, columns["timezone_id"]] = 1.0

    def bags(ids):
        flat = (ids + char_vocab_size * rows[:, None]).ravel()
        counts = np.bincount(flat, minlength=n * char_vocab_size).reshape(
            n, char_vocab_size).astype(np.float64)
        return counts / np.maximum(1.0, counts.sum(axis=1, keepdims=True))

    scalars = np.stack([columns["tweet_time"], columns["account_time"],
                        columns["utc_offset"]], axis=1)
    return np.concatenate([scalars, tz, bags(columns["location_ids"]),
                           bags(columns["text_ids"])], axis=1)


HIST_EXTREME_LO = -0.9
HIST_EXTREME_HI = 0.9


def r_histogram(representations, bins):
    """Pooled histogram of penultimate values over [-1, 1] plus tail masses.

    Returns (counts, edges, masses) where masses is the fraction of values
    in [-1, -0.9], (-0.9, 0.9) and [0.9, 1].
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    values = np.asarray(representations).reshape(-1)
    counts, edges = np.histogram(values, bins=bins, range=(-1.0, 1.0))
    n = max(1, values.size)
    masses = {
        "low_extreme": float(np.count_nonzero(values <= HIST_EXTREME_LO) / n),
        "middle": float(np.count_nonzero(
            (values > HIST_EXTREME_LO) & (values < HIST_EXTREME_HI)) / n),
        "high_extreme": float(np.count_nonzero(values >= HIST_EXTREME_HI) / n),
    }
    return counts, edges, masses


def extreme_fraction(representations):
    values = np.abs(np.asarray(representations).reshape(-1))
    return float(np.count_nonzero(values >= HIST_EXTREME_HI) / max(1, values.size))


def _record(width):
    """A ``.codes`` record: id, label, and the code packed MSB-first; the id
    and label are unsigned, and read back as int64."""
    return np.dtype([("id", "<u8"), ("label", "<u8"), ("bits", "u1", ((width + 7) // 8,))])


def save_codes(path, codes):
    """Header (magic, version, width, count), then one little-endian ``_record`` per code."""
    for name, values in (("id", codes.ids), ("label", codes.labels)):
        if (values < 0).any():
            raise ValueError(f"{path}: cannot write the negative {name} {values.min()}")
    rows = np.empty(len(codes), dtype=_record(codes.width))
    rows["id"], rows["label"] = codes.ids, codes.labels
    rows["bits"] = np.packbits(codes.bits, axis=1)
    with open(path, "wb") as f:
        f.write(CODE_MAGIC + struct.pack("<IIQ", CODE_FORMAT_VERSION, codes.width, len(codes)))
        f.write(rows.tobytes())


def load_codes(path):
    with open(path, "rb") as f:
        if read_exact(f, 4, path) != CODE_MAGIC:
            raise ValueError(f"{path}: not a binary code file")
        version, width, count = struct.unpack("<IIQ", read_exact(f, 16, path))
        if version != CODE_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported code file version {version}")
        if not width:
            raise ValueError(f"{path}: code width 0: a code has at least one bit")
        if not count:
            raise ValueError(f"{path}: no records")
        record = _record(width)
        rows = np.frombuffer(read_exact(f, count * record.itemsize, path),
                             dtype=record)
        if f.read(1):
            raise ValueError(f"{path}: data after the last of {count} records")
    for name in ("id", "label"):
        if (rows[name] >= np.uint64(2**63)).any():  # negative as int64
            raise ValueError(f"{path}: {name} {rows[name].max()} is out of range")
    ids, counts = np.unique(rows["id"], return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"{path}: repeated id {ids[counts > 1][0]}")
    return CodeSet(bits=np.unpackbits(rows["bits"], axis=1)[:, :width],
                   ids=rows["id"].astype(np.int64),
                   labels=rows["label"].astype(np.int64))
