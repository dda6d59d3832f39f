"""Feature fusion, penultimate representation and the classifier's logits."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .init import glorot, zeros


class FusionClassifier:
    """Concatenates feature vectors, optionally corrupts them, and classifies."""

    def __init__(self, rng, input_dim, penultimate_dim, n_classes):
        self.input_dim = input_dim
        self.params = {
            "fuse.Wr": glorot(rng, (input_dim, penultimate_dim)),
            "fuse.br": zeros((penultimate_dim,)),
            "fuse.Wout": glorot(rng, (penultimate_dim, n_classes)),
            "fuse.bout": zeros((n_classes,)),
        }

    def fuse(self, features, noise_sigma=0.0, dropout_keep=1.0, train=False,
             rng=None):
        """Concatenate features; in train mode add Gaussian noise then dropout."""
        fused = ad.concat(features, axis=1) if len(features) > 1 else features[0]
        if train:  # each op returns its input at sigma 0 and at keep 1
            fused = ad.dropout(ad.gaussian_noise(fused, noise_sigma, rng),
                               dropout_keep, rng, train=True)
        return fused

    def penultimate(self, fused):
        return ad.tanh(ad.add(ad.matmul(fused, self.params["fuse.Wr"]),
                              self.params["fuse.br"]))

    def classify(self, r):
        """Class logits, batch x K."""
        return ad.add(ad.matmul(r, self.params["fuse.Wout"]), self.params["fuse.bout"])


def predict_labels(logits):
    """Argmax predictions with lowest-index tie-break."""
    return np.argmax(np.asarray(logits), axis=-1)


def extrema_loss(r, alpha):
    """Penalty alpha * mean |(r_i - 1)(r_i + 1)| pushing elements toward +-1."""
    return ad.extrema_penalty(r, alpha)
