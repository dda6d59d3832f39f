import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet.text_net import TextNetwork, top_attended_spans

from conftest import finite_difference_check


def make_net(vocab_size=9, emb=3, out=4, window=3, attn=None, seed=0):
    return TextNetwork(np.random.default_rng(seed), vocab_size, emb, out,
                       window, attn)


def scalar_lstm_reference(xs, Wx, Wh, b, hidden):
    """Step-by-step scalar LSTM, independent of the tensor engine."""

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    T = len(xs)
    h = [0.0] * hidden
    c = [0.0] * hidden
    states = []
    for t in range(T):
        pre = [0.0] * (4 * hidden)
        for j in range(4 * hidden):
            for k in range(len(xs[t])):
                pre[j] += xs[t][k] * Wx[k][j]
            for k in range(hidden):
                pre[j] += h[k] * Wh[k][j]
            pre[j] += b[j]
        i = [sig(pre[j]) for j in range(hidden)]
        f = [sig(pre[hidden + j]) for j in range(hidden)]
        g = [math.tanh(pre[2 * hidden + j]) for j in range(hidden)]
        o = [sig(pre[3 * hidden + j]) for j in range(hidden)]
        c = [f[j] * c[j] + i[j] * g[j] for j in range(hidden)]
        h = [o[j] * math.tanh(c[j]) for j in range(hidden)]
        states.append(list(h))
    return states


# --- the unfused per-position graph that the fused ops replace: the oracle --

def _lstm_step(x_t, h, c, Wx, Wh, b, hidden):
    gates = ad.add(ad.add(ad.matmul(x_t, Wx), ad.matmul(h, Wh)), b)
    i = ad.sigmoid(gates[:, 0 * hidden:1 * hidden])
    f = ad.sigmoid(gates[:, 1 * hidden:2 * hidden])
    g = ad.tanh(gates[:, 2 * hidden:3 * hidden])
    o = ad.sigmoid(gates[:, 3 * hidden:4 * hidden])
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def unfused_lstm(xs, Wx, Wh, b, reverse):
    """Hidden states, by position, of an LSTM over a list of (batch, E) tensors."""
    hidden = Wh.shape[0]
    h = c = ad.Tensor(np.zeros((xs[0].shape[0], hidden)))
    states = [None] * len(xs)
    for t in (reversed(range(len(xs))) if reverse else range(len(xs))):
        h, c = _lstm_step(xs[t], h, c, Wx, Wh, b, hidden)
        states[t] = h
    return states


def unfused_window_max(a, P):
    spans = a.shape[0] - P + 1
    return ad.maximum_list([a[k:k + spans] for k in range(P)])


def unfused_forward(net, text_ids):
    """TextNetwork.forward built position by position: T embedding lookups,
    two step loops, T nested concats and a chain of maximum ops."""
    p = net.params
    batch, T = text_ids.shape
    xs = [ad.embedding(text_ids[:, t], p["text.emb"]) for t in range(T)]
    fwd, bwd = (unfused_lstm(xs, p[f"text.{d}.Wx"], p[f"text.{d}.Wh"],
                             p[f"text.{d}.b"], reverse=d == "bwd")
                for d in ("fwd", "bwd"))
    zero = ad.Tensor(np.zeros((batch, net.hidden)))
    stacked = ad.concat(
        [ad.concat([fwd[t - 1] if t > 0 else zero,
                    xs[t],
                    bwd[t + 1] if t + 1 < T else zero], axis=1)
         for t in range(T)],
        axis=0)
    proj = ad.relu(ad.add(ad.matmul(stacked, p["text.Wg"]), p["text.bg"]))
    g_seq = ad.reshape(proj, (T, batch, net.out_size))
    return net.attention_pool(unfused_window_max(g_seq, net.window))


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


class TestFusedOpsMatchOracle:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("T", [1, 6])
    def test_lstm_sequence(self, T, reverse):
        rng = np.random.default_rng(T + 10 * reverse)
        B, E, H = 3, 4, 5
        x = ad.Tensor(rng.standard_normal((T, B, E)), requires_grad=True)
        weights = [ad.Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
                   for shape in ((E, 4 * H), (H, 4 * H), (4 * H,))]
        upstream = rng.standard_normal((T, B, H))
        fused = ad.lstm_sequence(x, *weights, reverse=reverse)
        oracle = unfused_lstm([x[t] for t in range(T)], *weights, reverse)
        assert fused.shape == (T, B, H)
        assert_matches_oracle(fused.data, [h.data for h in oracle])
        fused_loss = ad.tsum(ad.mul(fused, upstream))
        oracle_loss = ad.tsum(ad.concat(
            [ad.mul(h, upstream[t]) for t, h in enumerate(oracle)], axis=0))
        for got, want in zip(gradients([x, *weights], fused_loss),
                             gradients([x, *weights], oracle_loss)):
            assert_matches_oracle(got, want)

    @pytest.mark.parametrize("T,P", [(6, 1), (6, 6), (7, 3)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_window_max(self, T, P, ties):
        rng = np.random.default_rng(T * P)
        shape = (T, 4, 5)
        # small integers make many windows hold their maximum more than once
        values = (rng.integers(0, 3, size=shape).astype(float) if ties
                  else rng.standard_normal(shape))
        a = ad.Tensor(values, requires_grad=True)
        upstream = rng.standard_normal((T - P + 1, 4, 5))
        fused = ad.window_max(a, P)
        oracle = unfused_window_max(a, P)
        np.testing.assert_array_equal(fused.data, oracle.data)
        got, = gradients([a], ad.tsum(ad.mul(fused, upstream)))
        want, = gradients([a], ad.tsum(ad.mul(oracle, upstream)))
        assert_matches_oracle(got, want)

    def test_window_max_tie_goes_to_first_maximum(self):
        a = ad.Tensor(np.array([1.0, 3.0, 3.0, 2.0]).reshape(4, 1, 1),
                      requires_grad=True)
        pooled = ad.window_max(a, 2)
        np.testing.assert_array_equal(pooled.data.reshape(-1), [3.0, 3.0, 3.0])
        ad.tsum(ad.mul(pooled, np.array([1.0, 10.0, 100.0]).reshape(3, 1, 1))
                ).backward()
        # span 1 covers the tied positions 1 and 2 and routes to position 1
        np.testing.assert_array_equal(a.grad.reshape(-1), [0.0, 11.0, 100.0, 0.0])

    @pytest.mark.parametrize("T,P", [(1, 1), (5, 1), (5, 5), (7, 3)])
    def test_network(self, T, P):
        net = make_net(vocab_size=8, emb=3, out=5, window=P, attn=4, seed=T + P)
        rng = np.random.default_rng(T)
        ids = rng.integers(0, 8, size=(2, T))
        upstream = rng.standard_normal((2, 5))
        f, weights = net.forward(ids)
        f_oracle, weights_oracle = unfused_forward(net, ids)
        assert_matches_oracle(f.data, f_oracle.data)
        assert_matches_oracle(weights.data, weights_oracle.data)
        params = list(net.params.values())
        for name, got, want in zip(
                net.params,
                gradients(params, ad.tsum(ad.mul(f, upstream))),
                gradients(params, ad.tsum(ad.mul(f_oracle, upstream)))):
            # at T=1 both contexts are out of range, so the LSTMs get none
            if T > 1 and name.split(".")[1] in ("fwd", "bwd"):
                assert np.abs(want).max() > 0.0, name
            assert_matches_oracle(got, want)


def bilstm_case(T, B, E, H, seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.standard_normal((T, B, E)), requires_grad=True)
    weights = [[ad.Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
                for shape in ((E, 4 * H), (H, 4 * H), (4 * H,))]
               for _ in ("fwd", "bwd")]
    return x, weights, rng.standard_normal((2, T, B, H))


def run_bilstm(x, weights, upstream, cpus, monkeypatch):
    """Output and gradients (x, then the six weights) of bilstm_sequence
    with ``cpus`` CPUs, and how many calls went to the worker thread."""
    submitted = []

    class CountingWorker:
        def submit(self, fn, *args):
            submitted.append(fn)
            return worker.submit(fn, *args)

    worker = ad._worker
    with monkeypatch.context() as m:
        m.setattr(ad, "_CPUS", cpus)
        m.setattr(ad, "_worker", CountingWorker())
        both = ad.bilstm_sequence(x, *weights)
        grads = gradients([x, *weights[0], *weights[1]],
                          ad.tsum(ad.mul(both, upstream)))
    return both.data, grads, len(submitted)


class TestBilstmSequence:
    # B*H*4H: 384 multiply-adds a step, then exactly the threshold 2**20
    @pytest.mark.parametrize("T,B,E,H,threaded", [(6, 3, 5, 4, False),
                                                  (3, 16, 8, 128, True)])
    def test_equals_two_lstm_sequences_bit_for_bit(self, T, B, E, H, threaded,
                                                   monkeypatch):
        x, weights, upstream = bilstm_case(T, B, E, H, seed=H)
        both, got, submitted = run_bilstm(x, weights, upstream, 2, monkeypatch)
        assert submitted == (2 if threaded else 0)  # forward and backward
        fwd, bwd = (ad.lstm_sequence(x, *weights[d], reverse=d == 1)
                    for d in (0, 1))
        np.testing.assert_array_equal(both, np.stack([fwd.data, bwd.data]))
        want = gradients([x, *weights[0], *weights[1]], ad.add(
            ad.tsum(ad.mul(fwd, upstream[0])), ad.tsum(ad.mul(bwd, upstream[1]))))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_worker_and_serial_runs_are_identical(self, monkeypatch):
        for dtype in (np.float64, np.float32):
            with ad.compute_dtype(dtype):
                x, weights, upstream = bilstm_case(4, 32, 6, 128, seed=1)
                threaded = run_bilstm(x, weights, upstream, 2, monkeypatch)
                serial = run_bilstm(x, weights, upstream, 1, monkeypatch)
            assert (threaded[2], serial[2]) == (2, 0)
            assert threaded[0].dtype == dtype
            np.testing.assert_array_equal(threaded[0], serial[0])
            for a, b in zip(threaded[1], serial[1]):
                assert a.dtype == dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("batch,hidden,cpus,threaded", [
        (32, 200, 2, True),    # paper-scale training step: 5.1 M
        (8, 200, 2, True),     # paper-scale dev eval: 1.3 M
        (32, 200, 1, False),   # one CPU
        (128, 16, 2, False),   # synthetic-scale training step: 131 k
        (512, 16, 2, False),   # synthetic-scale eval batch: 524 k
    ])
    def test_worker_runs_the_reverse_direction_of_large_steps(
            self, batch, hidden, cpus, threaded, monkeypatch):
        monkeypatch.setattr(ad, "_CPUS", cpus)
        main = threading.current_thread().name
        with np.errstate(over="raise"):
            seen = ad._per_direction(
                lambda d: (threading.current_thread().name, np.geterr()["over"]),
                batch, hidden)
        assert seen[0] == (main, "raise")
        assert (seen[1][0] != main) == threaded
        assert seen[1][1] == "raise"  # the caller's error handling, either way

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(ad, "_CPUS", 2)
        ad._per_direction(lambda d: d, 32, 200)  # the worker thread is up
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = int(ad._per_direction(lambda d: d, 32, 200) != [0, 1])
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's worker")
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_hidden_sizes_must_match(self):
        x, weights, _ = bilstm_case(2, 1, 3, 4, seed=0)
        narrow = [ad.Tensor(np.zeros(shape))
                  for shape in ((3, 8), (2, 8), (8,))]
        with pytest.raises(ValueError, match="hidden sizes 4 and 2"):
            ad.bilstm_sequence(x, weights[0], narrow)


def graph_size(out):
    """Number of tensors reachable from ``out`` through the graph."""
    seen = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_graph_size_does_not_grow_with_length():
    net = make_net(window=3)
    rng = np.random.default_rng(0)
    sizes = [graph_size(net.forward(rng.integers(0, 9, size=(2, T)))[0])
             for T in (5, 40)]
    assert sizes[0] == sizes[1]


class TestBilstm:
    def test_single_position(self):
        net = make_net()
        ids = np.array([[2]])
        fwd, bwd = net.bilstm_contexts(net.char_vectors(ids))
        assert fwd.shape == bwd.shape == (1, 1, net.hidden)

    def test_zero_weights_give_zero_states(self):
        net = make_net()
        for name, p in net.params.items():
            if "fwd" in name or "bwd" in name:
                p.data[...] = 0.0
        ids = np.array([[2, 3, 4]])
        fwd, bwd = net.bilstm_contexts(net.char_vectors(ids))
        assert fwd.shape == bwd.shape == (3, 1, net.hidden)
        np.testing.assert_allclose(fwd.data, 0.0)
        np.testing.assert_allclose(bwd.data, 0.0)

    def test_matches_scalar_reference(self):
        net = make_net(seed=4)
        ids = np.array([[2, 5, 3, 7]])
        xs = net.char_vectors(ids)
        fwd, _ = net.bilstm_contexts(xs)
        ref = scalar_lstm_reference(
            xs.data[:, 0].tolist(),
            net.params["text.fwd.Wx"].data.tolist(),
            net.params["text.fwd.Wh"].data.tolist(),
            net.params["text.fwd.b"].data.tolist(),
            net.hidden)
        assert fwd.shape[0] == len(ref) == 4
        for t in range(4):
            np.testing.assert_allclose(fwd.data[t, 0], ref[t], atol=1e-12)

    def test_backward_direction_matches_reversed_reference(self):
        net = make_net(seed=5)
        ids = np.array([[2, 5, 3]])
        xs = net.char_vectors(ids)
        _, bwd = net.bilstm_contexts(xs)
        ref = scalar_lstm_reference(
            xs.data[::-1, 0].tolist(),
            net.params["text.bwd.Wx"].data.tolist(),
            net.params["text.bwd.Wh"].data.tolist(),
            net.params["text.bwd.b"].data.tolist(),
            net.hidden)
        # bwd[t] consumed positions T-1..t, i.e. ref step T-1-t
        T = xs.shape[0]
        assert bwd.shape[0] == len(ref) == 3
        for t in range(T):
            np.testing.assert_allclose(bwd.data[t, 0], ref[T - 1 - t],
                                       atol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        net = make_net()
        H = net.hidden
        np.testing.assert_allclose(net.params["text.fwd.b"].data[H:2 * H], 1.0)
        np.testing.assert_allclose(net.params["text.fwd.b"].data[:H], 0.0)


class TestContextualProjection:
    def test_projection_input_width_is_3e(self):
        net = make_net()
        assert net.params["text.Wg"].data.shape[0] == 3 * net.emb_size

    def test_zero_projection_weights(self):
        net = make_net()
        net.params["text.Wg"].data[...] = 0.0
        net.params["text.bg"].data[...] = 0.0
        ids = np.array([[2, 3, 4, 5]])
        xs = net.char_vectors(ids)
        fwd, bwd = net.bilstm_contexts(xs)
        g = net.contextual_projection(xs, fwd, bwd)
        np.testing.assert_allclose(g.data, 0.0)

    def test_boundary_contexts_are_zero(self):
        # with recurrent weights zeroed, all contexts are zero, so every
        # position projects only its own character embedding
        net = make_net()
        for name in ("fwd.Wx", "fwd.Wh", "fwd.b", "bwd.Wx", "bwd.Wh", "bwd.b"):
            net.params[f"text.{name}"].data[...] = 0.0
        ids = np.array([[2, 3, 2]])
        xs = net.char_vectors(ids)
        fwd, bwd = net.bilstm_contexts(xs)
        g = net.contextual_projection(xs, fwd, bwd)
        np.testing.assert_allclose(g.data[0], g.data[2], atol=1e-12)


class TestWindowedMaxPool:
    def test_full_window_single_span(self):
        net = make_net(window=4)
        g = ad.Tensor(np.random.default_rng(0).standard_normal((4, 2, 3)))
        pooled = net.windowed_max_pool(g)
        assert pooled.shape == (1, 2, 3)
        np.testing.assert_allclose(pooled.data[0], g.data.max(axis=0))

    def test_span_count_300_10(self):
        net = make_net(window=10)
        g = ad.Tensor(np.zeros((300, 1, 2)))
        assert net.windowed_max_pool(g).shape[0] == 291

    def test_sliding_maxima(self):
        net = make_net(window=2)
        g = ad.Tensor(np.array([1.0, 3.0, 2.0]).reshape(3, 1, 1))
        pooled = net.windowed_max_pool(g)
        np.testing.assert_allclose(pooled.data.reshape(-1), [3.0, 3.0])

    def test_window_larger_than_sequence_rejected(self):
        net = make_net(window=5)
        with pytest.raises(ValueError, match="window"):
            net.windowed_max_pool(ad.Tensor(np.zeros((3, 1, 2))))

    @pytest.mark.parametrize("T,P", [(5, 1), (5, 5), (12, 7)])
    def test_span_count_formula(self, T, P):
        net = make_net(window=P)
        g = ad.Tensor(np.zeros((T, 1, 2)))
        assert net.windowed_max_pool(g).shape[0] == T - P + 1


class TestAttentionPool:
    def test_single_span_weight_one(self):
        net = make_net()
        span = np.random.default_rng(1).standard_normal((1, 2, net.out_size))
        f, weights = net.attention_pool(ad.Tensor(span))
        np.testing.assert_allclose(weights.data, 1.0)
        np.testing.assert_allclose(f.data, span[0])

    def test_identical_spans_uniform_weights(self):
        net = make_net()
        one = np.random.default_rng(2).standard_normal((1, 2, net.out_size))
        spans = np.repeat(one, 5, axis=0)
        _, weights = net.attention_pool(ad.Tensor(spans))
        np.testing.assert_allclose(weights.data, 0.2, atol=1e-12)

    def test_weights_sum_to_one_and_convex_hull(self):
        net = make_net(seed=7)
        spans = np.random.default_rng(3).standard_normal((6, 3, net.out_size))
        f, weights = net.attention_pool(ad.Tensor(spans))
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)
        lo = spans.min(axis=0)
        hi = spans.max(axis=0)
        assert (f.data >= lo - 1e-12).all() and (f.data <= hi + 1e-12).all()


def test_full_network_gradient_check():
    net = make_net(vocab_size=8, emb=3, out=5, window=3, attn=4, seed=9)
    ids = np.random.default_rng(4).integers(0, 8, size=(2, 7))

    def loss():
        f, _ = net.forward(ids)
        return ad.tsum(ad.mul(f, f))

    finite_difference_check(net.params, loss, max_coords=3)


def test_degenerate_permutation_invariance():
    # with recurrent weights zeroed, far-apart identical characters make
    # identical per-position projections regardless of their order
    net = make_net(window=1)
    for name in ("fwd.Wx", "fwd.Wh", "fwd.b", "bwd.Wx", "bwd.Wh", "bwd.b"):
        net.params[f"text.{name}"].data[...] = 0.0
    a, _ = net.forward(np.array([[2, 3, 4, 5, 6]]))
    b, _ = net.forward(np.array([[6, 3, 4, 5, 2]]))
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_top_attended_spans_report():
    weights = np.array([0.1, 0.6, 0.3])
    spans = top_attended_spans("abcdef", weights, window=3, k=2)
    assert spans == [(1, "bcd", 0.6), (2, "cde", pytest.approx(0.3))]
