from collections import Counter

import numpy as np
import pytest

from geotweet import corpus as C
from geotweet.trainer import SyntheticConfig, generate_synthetic


def finite_difference_check(params, loss_fn, rel_tol=1e-4, h=1e-5,
                            max_coords=6, seed=0, ops=None):
    """Compare analytic grads of loss_fn() against central differences.

    ``params`` is a name -> Tensor dict; loss_fn rebuilds the graph from the
    current parameter values and returns a scalar Tensor. When ``ops`` is a
    set, the ops of the graph that is backpropagated are added to it. Every
    rule of that graph must return one gradient per parent, in the parent's
    shape and dtype.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    nodes = graph_nodes(loss)
    if ops is not None:
        ops.update(op_counts(nodes))
    for node in nodes:
        if node._backward is not None:
            node._backward = one_gradient_per_parent(node._backward, node._parents)
    loss.backward()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached {name}"
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        coords = rng.choice(flat.size, size=min(max_coords, flat.size),
                            replace=False)
        for i in coords:
            old = flat[i]
            flat[i] = old + h
            lp = float(loss_fn().data)
            flat[i] = old - h
            lm = float(loss_fn().data)
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            an = gflat[i]
            denom = max(abs(fd), abs(an), 1e-6)
            rel = abs(fd - an) / denom
            worst = max(worst, rel)
            assert rel <= rel_tol, (
                f"{name}[{i}]: analytic {an} vs finite-diff {fd} (rel {rel})")
    for p in params.values():
        p.grad = None
    return worst


def one_gradient_per_parent(rule, parents):
    """``rule``, asserting that it returns one gradient per parent, each in
    its parent's shape and dtype: what ``Tensor.backward`` relies on."""
    def checked(g):
        grads = tuple(rule(g))
        name = rule.__qualname__
        assert len(grads) == len(parents), (
            f"{name}: {len(grads)} gradients for {len(parents)} parents")
        for i, (parent, pg) in enumerate(zip(parents, grads)):
            assert (pg.shape, pg.dtype) == (parent.shape, parent.data.dtype), (
                f"{name}: gradient {i} is {pg.shape} {pg.dtype}, its parent "
                f"{parent.shape} {parent.data.dtype}")
        return grads
    return checked


@pytest.fixture(scope="session")
def tiny_corpus():
    """Small synthetic corpus with vocabularies, shared across tests."""
    cfg = SyntheticConfig(n_cities=5, n_train=400, n_dev=80, n_test=80, seed=11)
    train, dev, test = generate_synthetic(cfg)
    char_vocab, tz_vocab, label_vocab = C.build_vocabularies(train, min_count=1)
    return {
        "train": train, "dev": dev, "test": test,
        "char_vocab": char_vocab, "tz_vocab": tz_vocab,
        "label_vocab": label_vocab,
    }


def graph_nodes(root):
    """Every tensor reachable from ``root`` through the graph."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def assert_matches_oracle(actual, expected):
    """Equal within 1e-10 of the oracle's largest magnitude."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=1e-10,
                               atol=1e-10 * np.abs(expected).max())


def gradients(tensors, loss):
    for t in tensors:
        t.grad = None
    loss.backward()
    # a tensor the loss does not reach has no gradient: zero
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for t in tensors]
    for t in tensors:
        t.grad = None
    return grads


def op_counts(nodes):
    """Graph nodes counted by op: the function that made each node's rule."""
    return Counter(node._backward.__qualname__.split(".")[0]
                   for node in nodes if node._backward is not None)


def encode_all(records, corpus, config):
    """The column table of ``records`` under ``corpus``'s vocabularies."""
    return C.encode_records(records, corpus["char_vocab"], corpus["tz_vocab"],
                            corpus["label_vocab"], config)


def head(columns, n):
    """The first ``n`` rows of a column table."""
    return {k: v[:n] for k, v in columns.items()}
