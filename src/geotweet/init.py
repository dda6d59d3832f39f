"""Weight initialization helpers."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

EMBEDDING_SCALE = 0.1


def _uniform(rng, limit, shape):
    """U(-limit, limit) draws; float32 zeros and no draw if rng is None."""
    values = np.zeros(shape, np.float32) if rng is None else rng.uniform(-limit, limit, shape)
    return Tensor(values, requires_grad=True)


def glorot(rng, shape):
    fan_in, fan_out = shape
    return _uniform(rng, np.sqrt(6.0 / (fan_in + fan_out)), shape)


def embedding_table(rng, rows, cols):
    return _uniform(rng, EMBEDDING_SCALE, (rows, cols))


def zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)
