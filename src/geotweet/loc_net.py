"""Convolutional encoder for the free-form user location field, plus the
timezone embedding lookup."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .init import embedding_table, glorot, zeros


class LocConvNetwork:
    """Character conv over Q-grams with max-over-time pooling over all spans."""

    def __init__(self, rng, vocab_size, emb_size, span, out_size, prefix="loc"):
        if span < 1:
            raise ValueError(f"span must be >= 1, got {span}")
        self.emb_size = emb_size
        self.span = span
        self.out_size = out_size
        self.prefix = prefix
        self.params = {
            f"{prefix}.emb": embedding_table(rng, vocab_size, emb_size),
            f"{prefix}.Wg": glorot(rng, (span * emb_size, out_size),
                                   span * emb_size, out_size),
            f"{prefix}.bg": zeros((out_size,)),
        }

    def forward(self, location_ids):
        """Pooled feature vector; location_ids is a (batch, T) int array."""
        ids = np.asarray(location_ids)
        batch, T = ids.shape
        if T < self.span:
            raise ValueError(f"sequence length {T} shorter than span {self.span}")
        # time-major, as the text network runs: (T, batch, E)
        emb = ad.embedding(ids.T, self.params[f"{self.prefix}.emb"])
        spans = T - self.span + 1
        windows = ad.concat(
            [emb[q:q + spans] for q in range(self.span)], axis=2)
        flat = ad.reshape(windows, (spans * batch, self.span * self.emb_size))
        g = ad.relu(ad.add(ad.matmul(flat, self.params[f"{self.prefix}.Wg"]),
                           self.params[f"{self.prefix}.bg"]))
        pooled = ad.window_max(ad.reshape(g, (spans, batch, self.out_size)), spans)
        return ad.reshape(pooled, (batch, self.out_size))


class TimezoneEmbedding:
    """Learned embedding per timezone id (including the UNK row)."""

    def __init__(self, rng, n_timezones, emb_size, prefix="tz"):
        self.prefix = prefix
        self.params = {f"{prefix}.emb": embedding_table(rng, n_timezones, emb_size)}

    def forward(self, timezone_ids):
        return ad.embedding(np.asarray(timezone_ids),
                            self.params[f"{self.prefix}.emb"])
