"""Convolutional encoder for the free-form user location field, plus the
timezone embedding lookup."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .init import embedding_table, glorot, zeros


class LocConvNetwork:
    """Character conv over Q-grams with max-over-time pooling over all spans."""

    def __init__(self, rng, vocab_size, emb_size, span, out_size):
        self.emb_size = emb_size
        self.span = span
        self.out_size = out_size
        self.params = {
            "loc.emb": embedding_table(rng, vocab_size, emb_size),
            "loc.Wg": glorot(rng, (span * emb_size, out_size)),
            "loc.bg": zeros((out_size,)),
        }

    def forward(self, location_ids):
        """Pooled feature vector; location_ids is a (batch, T) int array."""
        # time-major, as the text network runs: (T, batch, E)
        emb = ad.embedding(np.asarray(location_ids).T, self.params["loc.emb"])
        return ad.span_conv_max(emb, self.params["loc.Wg"], self.params["loc.bg"])


class TimezoneEmbedding:
    """Learned embedding per timezone id (including the UNK row)."""

    def __init__(self, rng, n_timezones, emb_size):
        self.params = {"tz.emb": embedding_table(rng, n_timezones, emb_size)}

    def forward(self, timezone_ids):
        return ad.embedding(np.asarray(timezone_ids), self.params["tz.emb"])
