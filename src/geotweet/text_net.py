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
        f"{prefix}.Wx": glorot(rng, (emb_size, 4 * hidden), emb_size, 4 * hidden),
        f"{prefix}.Wh": glorot(rng, (hidden, 4 * hidden), hidden, 4 * hidden),
        f"{prefix}.b": zeros((4 * hidden,)),
    }
    # forget-gate bias starts at 1.0
    p[f"{prefix}.b"].data[hidden:2 * hidden] = 1.0
    return p


class TextNetwork:
    """Produces one feature vector per tweet plus span attention weights."""

    def __init__(self, rng, vocab_size, emb_size, out_size, window,
                 attn_size=None, prefix="text"):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.emb_size = emb_size
        self.hidden = emb_size  # contexts concatenate to 3E
        self.out_size = out_size
        self.window = window
        self.attn_size = attn_size if attn_size is not None else out_size
        self.prefix = prefix
        self.params = {f"{prefix}.emb": embedding_table(rng, vocab_size, emb_size)}
        self.params.update(_lstm_params(rng, f"{prefix}.fwd", emb_size, self.hidden))
        self.params.update(_lstm_params(rng, f"{prefix}.bwd", emb_size, self.hidden))
        self.params[f"{prefix}.Wg"] = glorot(
            rng, (3 * emb_size, out_size), 3 * emb_size, out_size)
        self.params[f"{prefix}.bg"] = zeros((out_size,))
        self.params[f"{prefix}.Wv"] = glorot(
            rng, (out_size, self.attn_size), out_size, self.attn_size)
        self.params[f"{prefix}.bv"] = zeros((self.attn_size,))
        self.params[f"{prefix}.v"] = glorot(
            rng, (self.attn_size, 1), self.attn_size, 1)

    def _p(self, name):
        return self.params[f"{self.prefix}.{name}"]

    def char_vectors(self, text_ids):
        """Embedded characters, (T, batch, E); text_ids is a (batch, T) int array."""
        return ad.embedding(np.asarray(text_ids).T, self._p("emb"))

    def bilstm_contexts(self, xs):
        """Forward and backward (T, batch, H) hidden states over embedded chars."""
        hs = ad.bilstm_sequence(xs, *(
            [self._p(f"{d}.{w}") for w in ("Wx", "Wh", "b")] for d in ("fwd", "bwd")))
        return hs[0], hs[1]

    def contextual_projection(self, xs, fwd, bwd):
        """ReLU projection of [h_fwd[t-1] ; x_t ; h_bwd[t+1]] for every position.

        Out-of-range contexts are zero vectors. Returns a (T, batch, O) tensor.
        """
        T, batch, E = xs.shape
        zero = ad.Tensor(np.zeros((1, batch, self.hidden)))
        stacked = ad.concat([ad.concat([zero, fwd[:-1]], axis=0), xs,
                             ad.concat([bwd[1:], zero], axis=0)], axis=2)
        flat = ad.reshape(stacked, (T * batch, 3 * E))
        proj = ad.relu(ad.add(ad.matmul(flat, self._p("Wg")), self._p("bg")))
        return ad.reshape(proj, (T, batch, self.out_size))

    def windowed_max_pool(self, g_seq, window=None):
        """Elementwise max over each length-P window; yields T-P+1 span vectors."""
        return ad.window_max(g_seq, self.window if window is None else window)

    def attention_pool(self, pooled):
        """Softmax-weighted mean of span vectors; also returns the weights."""
        spans, batch, O = pooled.shape
        flat = ad.reshape(pooled, (spans * batch, O))
        hidden = ad.tanh(ad.add(ad.matmul(flat, self._p("Wv")), self._p("bv")))
        scores = ad.reshape(ad.matmul(hidden, self._p("v")), (spans, batch))
        weights = ad.softmax(ad.transpose(scores, (1, 0)))  # (batch, spans)
        spans_bso = ad.transpose(pooled, (1, 0, 2))
        weighted = ad.mul(ad.reshape(weights, (batch, spans, 1)), spans_bso)
        return ad.tsum(weighted, axis=1), weights

    def forward(self, text_ids):
        xs = self.char_vectors(text_ids)
        fwd, bwd = self.bilstm_contexts(xs)
        g_seq = self.contextual_projection(xs, fwd, bwd)
        pooled = self.windowed_max_pool(g_seq)
        return self.attention_pool(pooled)


def top_attended_spans(text, weights, window, k=3):
    """Top-k (start, substring, weight) spans for one example, by weight."""
    order = np.argsort(-np.asarray(weights), kind="stable")[:k]
    return [(int(t), text[int(t):int(t) + window], float(weights[t])) for t in order]
