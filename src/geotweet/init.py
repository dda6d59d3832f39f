"""Weight initialization helpers."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

EMBEDDING_SCALE = 0.1


def glorot(rng, shape):
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)


def embedding_table(rng, rows, cols):
    return Tensor(rng.uniform(-EMBEDDING_SCALE, EMBEDDING_SCALE, (rows, cols)),
                  requires_grad=True)


def zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)
