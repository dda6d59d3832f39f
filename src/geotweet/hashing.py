"""Sign binarization, Hamming retrieval, AP/MAP evaluation, the
random-hyperplane LSH baseline, and the penultimate-value histogram."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .archive import read_exact
from .model import EVAL_BATCH_SIZE, as_arrays, iter_batches

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
    if not relevant:
        raise ValueError("average precision needs a non-empty relevant set")
    relevant = set(relevant)
    missing = relevant.difference(ranking)
    if missing:
        raise ValueError(f"relevant ids not in the ranking: {sorted(missing)[:5]}")
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranking, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def map_from_codes(test, dev):
    """MAP of retrieving same-label dev codes for each test code.

    Test codes with no same-label dev tweet are excluded; their count is
    reported alongside the MAP.
    """
    by_label = {}
    for i, lab in zip(dev.ids, dev.labels):
        by_label.setdefault(int(lab), set()).add(int(i))
    aps = []
    excluded = 0
    for bits, lab in zip(test.bits, test.labels):
        relevant = by_label.get(int(lab))
        if not relevant:
            excluded += 1
            continue
        ranking = retrieve(bits, dev)
        aps.append(average_precision(ranking, relevant))
    mean_ap = float(np.mean(aps)) if aps else 0.0
    return mean_ap, excluded


def compute_representations(model, examples):
    """Penultimate vectors for a list of examples (eval mode)."""
    arrays = as_arrays(examples)
    chunks = [model.forward(batch, train=False)[1].data
              for batch in iter_batches(arrays, EVAL_BATCH_SIZE)]
    return np.concatenate(chunks, axis=0), arrays["label_id"]


def encode_code_set(model, examples):
    reps, labels = compute_representations(model, examples)
    return CodeSet(bits=binarize_sign(reps),
                   ids=np.arange(len(labels), dtype=np.int64),
                   labels=labels.astype(np.int64))


class LshModel:
    """Random-hyperplane hashing: bit_i = 1 iff hyperplane_i . x > 0."""

    def __init__(self, n_bits, dim, rng):
        self.hyperplanes = rng.standard_normal((n_bits, dim))

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.hyperplanes.shape[1]:
            raise ValueError(
                f"input dim {x.shape[-1]} does not match hyperplanes "
                f"dim {self.hyperplanes.shape[1]}")
        return (x @ self.hyperplanes.T > 0).astype(np.uint8)


def raw_feature_vector(example, char_vocab_size, n_timezones):
    """Data-independent input vector for the LSH baseline: scalar time
    features, one-hot timezone, and character-count bags of location/text."""
    tz = np.zeros(n_timezones)
    tz[example.timezone_id] = 1.0
    text_bag = np.bincount(
        np.asarray(example.text_ids), minlength=char_vocab_size).astype(np.float64)
    loc_bag = np.bincount(
        np.asarray(example.location_ids), minlength=char_vocab_size).astype(np.float64)
    scalars = np.array([example.tweet_time, example.account_time,
                        example.utc_offset])
    return np.concatenate([
        scalars, tz,
        loc_bag / max(1.0, loc_bag.sum()),
        text_bag / max(1.0, text_bag.sum()),
    ])


def raw_feature_matrix(examples, char_vocab_size, n_timezones):
    return np.stack([raw_feature_vector(e, char_vocab_size, n_timezones)
                     for e in examples])


HIST_EXTREME_LO = -0.9
HIST_EXTREME_HI = 0.9


def r_histogram(representations, bins):
    """Pooled histogram of penultimate values over [-1, 1] plus tail masses.

    Returns (counts, edges, masses) where masses is the fraction of values
    in [-1, -0.9], (-0.9, 0.9) and [0.9, 1].
    """
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


def extreme_fraction(representations, threshold=0.9):
    values = np.abs(np.asarray(representations).reshape(-1))
    return float(np.count_nonzero(values >= threshold) / max(1, values.size))


def save_codes(path, codes):
    """Packed code file: header (magic, version, width, count), then per
    record (id, label, bits packed MSB-first, little-endian integers)."""
    width = codes.width
    with open(path, "wb") as f:
        f.write(CODE_MAGIC)
        f.write(struct.pack("<IIQ", CODE_FORMAT_VERSION, width, len(codes)))
        for bits, rid, lab in zip(codes.bits, codes.ids, codes.labels):
            f.write(struct.pack("<QQ", int(rid), int(lab)))
            f.write(np.packbits(bits).tobytes())


def load_codes(path):
    with open(path, "rb") as f:
        if read_exact(f, 4, path) != CODE_MAGIC:
            raise ValueError(f"{path}: not a binary code file")
        version, width, count = struct.unpack("<IIQ", read_exact(f, 16, path))
        if version != CODE_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported code file version {version}")
        record = np.dtype([("id", "<u8"), ("label", "<u8"),
                           ("bits", "u1", ((width + 7) // 8,))])
        rows = np.frombuffer(read_exact(f, count * record.itemsize, path),
                             dtype=record)
        if f.read(1):
            raise ValueError(f"{path}: data after the last of {count} records")
    return CodeSet(bits=np.unpackbits(rows["bits"], axis=1)[:, :width],
                   ids=rows["id"].astype(np.int64),
                   labels=rows["label"].astype(np.int64))
