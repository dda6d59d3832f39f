"""Character-level recurrent convolutional text encoder with self-attention.

Pipeline per tweet: char embeddings -> bi-LSTM contexts -> per-position
projection over [left context ; char ; right context] -> windowed
max-over-time pooling -> attention-weighted mean of the span vectors.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .init import embedding_table, glorot, zeros


def _lstm_params(rng, prefix, emb_size, hidden):
    p = {
        f"{prefix}.Wx": glorot(rng, (emb_size, 4 * hidden)),
        f"{prefix}.Wh": glorot(rng, (hidden, 4 * hidden)),
        f"{prefix}.b": zeros((4 * hidden,)),
    }
    # forget-gate bias starts at 1.0
    p[f"{prefix}.b"].data[hidden:2 * hidden] = 1.0
    return p


class TextNetwork:
    """Produces one feature vector per tweet plus span attention weights."""

    def __init__(self, rng, vocab_size, emb_size, out_size, window, attn_size=None):
        self.emb_size = emb_size
        self.hidden = emb_size  # contexts concatenate to 3E
        self.out_size = out_size
        self.window = window
        self.attn_size = attn_size if attn_size is not None else out_size
        self.params = {
            "text.emb": embedding_table(rng, vocab_size, emb_size),
            **_lstm_params(rng, "text.fwd", emb_size, self.hidden),
            **_lstm_params(rng, "text.bwd", emb_size, self.hidden),
            "text.Wg": glorot(rng, (3 * emb_size, out_size)),
            "text.bg": zeros((out_size,)),
            "text.Wv": glorot(rng, (out_size, self.attn_size)),
            "text.bv": zeros((self.attn_size,)),
            "text.v": glorot(rng, (self.attn_size, 1)),
        }

    def _p(self, name):
        return self.params[f"text.{name}"]

    def char_vectors(self, text_ids):
        """The (T, batch) time-major char ids of a (batch, T) int array,
        checked against the embedding table."""
        return ad.checked_ids(np.asarray(text_ids).T, self._p("emb"))

    def bilstm_contexts(self, ids):
        """The (2, T, batch, H) forward then backward hidden states over the
        embedded chars of time-major ``ids``."""
        return ad.bilstm_sequence(ids, self._p("emb"), *(
            [self._p(f"{d}.{w}") for w in ("Wx", "Wh", "b")] for d in ("fwd", "bwd")))

    def contextual_projection(self, ids, hs):
        """ReLU projection of [h_fwd[t-1] ; x_t ; h_bwd[t+1]] for every
        position, where x_t embeds char ``ids[t]``.

        Out-of-range contexts are zero vectors. Returns a (T, batch, O) tensor.
        """
        return ad.context_projection(ids, self._p("emb"), hs, self._p("Wg"),
                                     self._p("bg"))

    def windowed_max_pool(self, g_seq, window=None):
        """Elementwise max over each length-P window; yields T-P+1 span vectors."""
        return ad.window_max(g_seq, self.window if window is None else window)

    def attention_pool(self, pooled):
        """Softmax-weighted mean of span vectors; also returns the weights."""
        return ad.attention_pool(pooled, self._p("Wv"), self._p("bv"), self._p("v"))

    def forward(self, text_ids):
        ids = self.char_vectors(text_ids)
        g_seq = self.contextual_projection(ids, self.bilstm_contexts(ids))
        pooled = self.windowed_max_pool(g_seq)
        return self.attention_pool(pooled)


def top_attended_spans(text, weights, window, k=3):
    """Top-k (start, substring, weight) spans for one example, by weight."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = np.argsort(-np.asarray(weights), kind="stable")[:k]
    return [(int(t), text[int(t):int(t) + window], float(weights[t])) for t in order]
