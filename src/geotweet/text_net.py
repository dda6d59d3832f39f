"""Character-level recurrent convolutional text encoder with self-attention.

Pipeline per tweet: char embeddings -> bi-LSTM contexts -> per-position
projection over [left context ; char ; right context] -> windowed
max-over-time pooling -> attention-weighted mean of the span vectors.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .corpus import PAD_ID
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

    def bilstm_contexts(self, ids, lengths=None):
        """The (2, T, batch, H) forward then backward hidden states over the
        embedded chars of time-major ``ids``; the backward states read each
        row from its length in ``lengths`` (default T) down."""
        return ad.bilstm_sequence(ids, self._p("emb"), *(
            [self._p(f"{d}.{w}") for w in ("Wx", "Wh", "b")] for d in ("fwd", "bwd")),
            lengths=lengths)

    def contextual_projection(self, ids, hs, lengths=None):
        """ReLU projection of [h_fwd[t-1] ; x_t ; h_bwd[t+1]] for every
        position, where x_t embeds char ``ids[t]``.

        Out-of-range contexts are zero vectors, and so are the projections
        at or after each row's length in ``lengths``. Returns a (T, batch,
        O) tensor.
        """
        return ad.context_projection(ids, self._p("emb"), hs, self._p("Wg"),
                                     self._p("bg"), lengths=lengths)

    def windowed_max_pool(self, g_seq, window=None):
        """Elementwise max over each length-P window; yields T-P+1 span vectors."""
        return ad.window_max(g_seq, self.window if window is None else window)

    def attention_pool(self, pooled, lengths=None):
        """Softmax-weighted mean of span vectors, weighting none that starts
        at or after its row's length in ``lengths``; also returns the weights."""
        return ad.attention_pool(pooled, self._p("Wv"), self._p("bv"), self._p("v"),
                                 lengths=lengths)

    def forward(self, text_ids, lengths=None):
        """(features, span weights) of a (batch, T) int array. With each
        row's text length in ``lengths``, the batch is cut to the
        min(T, max n + P - 1) positions that can change an output, and the
        weights of the spans cut off are zeros: no row's result depends on
        the cut. None reads all T positions of every row."""
        text_ids = np.asarray(text_ids)
        spans = text_ids.shape[1] - self.window + 1
        if lengths is not None:
            text_ids = text_ids[:, :np.max(lengths, initial=1) + self.window - 1]
        ids = self.char_vectors(text_ids)
        g_seq = self.contextual_projection(ids, self.bilstm_contexts(ids, lengths),
                                           lengths)
        features, weights = self.attention_pool(self.windowed_max_pool(g_seq),
                                                lengths)
        cut = spans - weights.shape[1]
        return features, ad.Tensor(np.pad(weights.data, ((0, 0), (0, cut))))


def text_lengths(text_ids):
    """Each row's text length n in a (batch, T) int array that pads texts on
    the right with ``PAD_ID``, which no character encodes to: T less the
    row's trailing run of PAD ids, and at least 1."""
    text = np.asarray(text_ids) != PAD_ID
    return np.where(text.any(axis=1), text.shape[1] - text[:, ::-1].argmax(axis=1), 1)


def top_attended_spans(text, weights, window, k=3):
    """Top-k (start, substring, weight) spans for one example, by weight."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = np.argsort(-np.asarray(weights), kind="stable")[:k]
    return [(int(t), text[int(t):int(t) + window], float(weights[t])) for t in order]
