"""Adam optimizer over a named parameter collection."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Bias-corrected Adam with Kingma & Ba's BETA1, BETA2 and EPSILON."""

    def __init__(self, params, learning_rate=0.001):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.second_moment = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        """Apply one update in place using accumulated grads, then zero them."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.first_moment[name]
            v = self.second_moment[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
        self.zero_grad()

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def snapshot(self):
        """Copies of the parameters and the optimizer state, for the epoch revert."""
        return {
            "step_count": self.step_count,
            "params": {k: p.data.copy() for k, p in self.params.items()},
            "first_moment": {k: m.copy() for k, m in self.first_moment.items()},
            "second_moment": {k: v.copy() for k, v in self.second_moment.items()},
        }

    def restore(self, snap):
        self.step_count = snap["step_count"]
        for k, p in self.params.items():
            p.data[...] = snap["params"][k]
            self.first_moment[k][...] = snap["first_moment"][k]
            self.second_moment[k][...] = snap["second_moment"][k]
