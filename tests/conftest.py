import numpy as np
import pytest

from geotweet import corpus as C
from geotweet.trainer import SyntheticConfig, generate_synthetic


def finite_difference_check(params, loss_fn, rel_tol=1e-4, h=1e-5,
                            max_coords=6, seed=0):
    """Compare analytic grads of loss_fn() against central differences.

    ``params`` is a name -> Tensor dict; loss_fn rebuilds the graph from the
    current parameter values and returns a scalar Tensor.
    """
    for p in params.values():
        p.grad = None
    loss_fn().backward()
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


def encode_all(records, corpus, text_max_len, loc_max_len):
    return [C.encode_example(r, corpus["char_vocab"], corpus["tz_vocab"],
                             corpus["label_vocab"], text_max_len, loc_max_len)
            for r in records]
