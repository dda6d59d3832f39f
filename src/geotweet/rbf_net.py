"""Learnable Gaussian-bin encoder for scalar inputs in [0, 1]."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SIGMA_FLOOR = 1e-3
EXCLUSION_THRESHOLD = 0.075


class RbfNetwork:
    """One Gaussian responsiveness value per (mean, width) bin."""

    def __init__(self, bins, prefix):
        self.prefix = prefix
        # means at centers of equal subintervals of [0,1], widths 1/(2B)
        mu = (np.arange(bins) + 0.5) / bins
        sigma = np.full(bins, 1.0 / (2 * bins))
        self.params = {
            f"{prefix}.mu": Tensor(mu, requires_grad=True),
            f"{prefix}.sigma": Tensor(sigma, requires_grad=True),
        }

    def forward(self, u):
        """Activations for a batch of scalars; u is a (batch,) array."""
        return ad.rbf(u, self.params[f"{self.prefix}.mu"],
                      self.params[f"{self.prefix}.sigma"])

    def clamp_sigma(self):
        """Keep widths above the floor; call after every optimizer step."""
        sigma = self.params[f"{self.prefix}.sigma"]
        np.maximum(sigma.data, SIGMA_FLOOR, out=sigma.data)


def bin_weight_profile(activations):
    """Per-bin mean weight with exclusion mask over a city's activations.

    ``activations`` is an (n, bins) array of RBF outputs for one city's
    examples. Bins with mean weight strictly below EXCLUSION_THRESHOLD are
    flagged excluded.
    """
    acts = np.asarray(activations, dtype=np.float64)
    if acts.size == 0:
        raise ValueError("bin_weight_profile: no examples for this city")
    means = acts.mean(axis=0)
    return means, means < EXCLUSION_THRESHOLD
