import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet.corpus import PAD_ID
from geotweet.text_net import TextNetwork, text_lengths, top_attended_spans

from conftest import assert_matches_oracle, finite_difference_check, gradients
from oracles import bilstm_sequence as x_bilstm_sequence
from oracles import context_projection as x_context_projection
from oracles import (chained_attention_pool, chained_context_projection,
                     lstm_sequence, maximum_list, mul, relu, reshape, sigmoid,
                     take, text_row_forward, tsum)


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
    i, f, g, o = (take(gates, (slice(None), slice(k * hidden, (k + 1) * hidden)))
                  for k in range(4))
    i, f, g, o = sigmoid(i), sigmoid(f), ad.tanh(g), sigmoid(o)
    c_new = ad.add(mul(f, c), mul(i, g))
    h_new = mul(o, ad.tanh(c_new))
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
    return maximum_list([take(a, slice(k, k + spans)) for k in range(P)])


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
    proj = relu(ad.add(ad.matmul(stacked, p["text.Wg"]), p["text.bg"]))
    g_seq = reshape(proj, (T, batch, net.out_size))
    return net.attention_pool(unfused_window_max(g_seq, net.window))


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
        fused = lstm_sequence(x, *weights, reverse=reverse)
        oracle = unfused_lstm([take(x, t) for t in range(T)], *weights, reverse)
        assert fused.shape == (T, B, H)
        assert_matches_oracle(fused.data, [h.data for h in oracle])
        fused_loss = tsum(mul(fused, upstream))
        oracle_loss = tsum(ad.concat(
            [mul(h, upstream[t]) for t, h in enumerate(oracle)], axis=0))
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
        got, = gradients([a], tsum(mul(fused, upstream)))
        want, = gradients([a], tsum(mul(oracle, upstream)))
        assert_matches_oracle(got, want)

    def test_window_max_tie_goes_to_first_maximum(self):
        a = ad.Tensor(np.array([1.0, 3.0, 3.0, 2.0]).reshape(4, 1, 1),
                      requires_grad=True)
        pooled = ad.window_max(a, 2)
        np.testing.assert_array_equal(pooled.data.reshape(-1), [3.0, 3.0, 3.0])
        tsum(mul(pooled, np.array([1.0, 10.0, 100.0]).reshape(3, 1, 1))
                ).backward()
        # span 1 covers the tied positions 1 and 2 and routes to position 1
        np.testing.assert_array_equal(a.grad.reshape(-1), [0.0, 11.0, 100.0, 0.0])

    @pytest.mark.parametrize("S", [1, 4, 9])
    def test_attention_pool(self, S):
        rng = np.random.default_rng(S)
        B, O, A = 3, 5, 4
        inputs = [ad.Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((S, B, O), (O, A), (A,), (A, 1))]
        upstream = rng.standard_normal((B, O))
        fused, weights = ad.attention_pool(*inputs)
        chain, chain_weights = chained_attention_pool(*inputs)
        assert fused.shape == (B, O) and weights.shape == (B, S)
        assert_matches_oracle(fused.data, chain.data)
        assert_matches_oracle(weights.data, chain_weights.data)
        if S == 1:  # one span takes all the weight
            np.testing.assert_array_equal(weights.data, 1.0)
        for got, want in zip(gradients(inputs, tsum(mul(fused, upstream))),
                             gradients(inputs, tsum(mul(chain, upstream)))):
            assert_matches_oracle(got, want)

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
                gradients(params, tsum(mul(f, upstream))),
                gradients(params, tsum(mul(f_oracle, upstream)))):
            # at T=1 both contexts are out of range, so the LSTMs get none
            if T > 1 and name.split(".")[1] in ("fwd", "bwd"):
                assert np.abs(want).max() > 0.0, name
            assert_matches_oracle(got, want)


def bilstm_case(T, B, E, H, seed, vocab=7):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=(T, B))
    table = ad.Tensor(rng.standard_normal((vocab, E)), requires_grad=True)
    weights = [[ad.Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
                for shape in ((E, 4 * H), (H, 4 * H), (4 * H,))]
               for _ in ("fwd", "bwd")]
    return ids, table, weights, rng.standard_normal((2, T, B, H))


def split_op_cases(T, B, seed, lengths=None):
    """The four text ops, as (name, build, inputs, upstream):
    build(*inputs) is the op's output tensor, and inputs are its tensors.
    The three ops that take ``lengths`` are given them."""
    rng = np.random.default_rng(seed)
    V, E, H, O, A, P = 6, 3, 4, 5, 4, min(T, 3)

    def tensor(*shape):
        return ad.Tensor(rng.standard_normal(shape), requires_grad=True)

    ids = rng.integers(0, V, size=(T, B))
    lstm = [tensor(E, 4 * H), tensor(H, 4 * H), tensor(4 * H)]
    return [
        ("bilstm_sequence",
         lambda table, *w: ad.bilstm_sequence(ids, table, w[:3], w[3:], lengths),
         [tensor(V, E), *lstm, *(tensor(*w.shape) for w in lstm)],
         rng.standard_normal((2, T, B, H))),
        ("context_projection",
         lambda table, hs, W, b: ad.context_projection(ids, table, hs, W, b,
                                                        lengths),
         [tensor(V, E), tensor(2, T, B, H), tensor(2 * H + E, O), tensor(O)],
         rng.standard_normal((T, B, O))),
        ("window_max", lambda a: ad.window_max(a, P), [tensor(T, B, O)],
         rng.standard_normal((T - P + 1, B, O))),
        ("attention_pool", lambda *inputs: ad.attention_pool(*inputs, lengths)[0],
         [tensor(T, B, O), tensor(O, A), tensor(A), tensor(A, 1)],
         rng.standard_normal((B, O))),
    ]


def count_threaded_halves(m):
    """Make ``m`` count, in the list it returns, the halves that
    ``autodiff._halves`` runs on a thread of its own."""
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    m.setattr(ad, "ThreadPoolExecutor", CountingPool)
    return submitted


def run_split(build, inputs, upstream, cpus, monkeypatch, threshold=None):
    """Output and input gradients of build(*inputs) with ``cpus`` CPUs (and
    ``threshold`` in place of the size threshold), and how many calls went
    to a worker thread."""
    with monkeypatch.context() as m:
        submitted = count_threaded_halves(m)
        m.setattr(ad, "_CPUS", cpus)
        if threshold is not None:
            m.setattr(ad, "_THREADED_WORK", threshold)
        out = build(*inputs)
        grads = gradients(inputs, tsum(mul(out, upstream)))
    return out.data, grads, len(submitted)


def bilstm_over_embedding(ids, table, weights):
    """Both directions as two x-input lstm_sequence oracles."""
    x = ad.embedding(ids, table)
    return [lstm_sequence(x, *weights[d], reverse=d == 1) for d in (0, 1)]


class TestBilstmSequence:
    # one direction's T*B*4H*H recurrent multiply-adds: 1,152, then 2**25
    @pytest.mark.parametrize("T,B,E,H,threaded", [(6, 3, 5, 4, False),
                                                  (4, 32, 8, 256, True)])
    def test_matches_two_lstm_sequences_over_the_embedding(
            self, T, B, E, H, threaded, monkeypatch):
        ids, table, weights, upstream = bilstm_case(T, B, E, H, seed=H)
        inputs = [table, *weights[0], *weights[1]]
        both, got, submitted = run_split(
            lambda *_: ad.bilstm_sequence(ids, table, *weights), inputs,
            upstream, 2, monkeypatch)
        assert submitted == (1 if threaded else 0)  # in backward only
        fwd, bwd = bilstm_over_embedding(ids, table, weights)
        # each position reads the same projected row, so the states agree
        # bit for bit; the input gradients are summed in another order
        np.testing.assert_array_equal(both, np.stack([fwd.data, bwd.data]))
        want = gradients(inputs, ad.add(tsum(mul(fwd, upstream[0])),
                                        tsum(mul(bwd, upstream[1]))))
        for a, b in zip(got, want):
            assert_matches_oracle(a, b)

    # the paper-scale case is a dev-eval batch: the reverse direction's
    # backward goes through the worker
    @pytest.mark.parametrize("T,B,H,dtype,cpus", [
        (7, 3, 5, np.float64, 1),
        (40, 128, 16, np.float32, 1),
        (300, 8, 200, np.float32, 2),
    ])
    def test_the_two_directions_are_one_recurrence(self, T, B, H, dtype, cpus,
                                                   monkeypatch):
        # the reverse direction runs the forward loop over time-reversed
        # views, so reversed ids with the weights swapped swap the
        # directions bit for bit, in states and in every gradient
        ids, table, weights, upstream = bilstm_case(T, B, 8, H, seed=T)
        table, *w = [ad.Tensor(t.data.astype(dtype), requires_grad=True)
                     for t in (table, *weights[0], *weights[1])]
        upstream = upstream.astype(dtype)

        def run(ids, w, upstream):
            return run_split(
                lambda table, *w: ad.bilstm_sequence(ids, table, w[:3], w[3:]),
                [table, *w], upstream, cpus, monkeypatch)

        hs, grads, sent = run(ids, w, upstream)
        hs_m, grads_m, sent_m = run(ids[::-1], w[3:] + w[:3],
                                    np.stack([upstream[1, ::-1],
                                              upstream[0, ::-1]]))
        assert sent == sent_m == (1 if cpus == 2 else 0)
        np.testing.assert_array_equal(hs_m, np.stack([hs[1, ::-1], hs[0, ::-1]]))
        np.testing.assert_array_equal(grads_m[0], grads[0])
        for a, b in zip(grads_m[1:], grads[4:] + grads[1:4]):
            assert a.dtype == dtype
            np.testing.assert_array_equal(a, b)

    # a serial float32 case, then one whose directions run on two threads
    @pytest.mark.parametrize("T,B,H,cpus", [(50, 16, 32, 1), (40, 32, 128, 2)])
    def test_backward_writes_its_gradient_over_the_gates(self, T, B, H, cpus,
                                                         monkeypatch):
        # each step's pre-activation gradient takes the place of the gates
        # it has read, so the rule allocates no (T, batch, 4H) array
        monkeypatch.setattr(ad, "_CPUS", cpus)
        ids, table, weights, upstream = bilstm_case(T, B, 8, H, seed=T)
        table, *w = [ad.Tensor(t.data.astype(np.float32), requires_grad=True)
                     for t in (table, *weights[0], *weights[1])]
        hs = ad.bilstm_sequence(ids, table, w[:3], w[3:])
        upstream = upstream.astype(np.float32)
        gates = T * B * 4 * H * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grads = hs._backward(upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads) == 7
        assert peak - start < gates, f"{(peak - start) / gates:.2f} gate arrays"

    def test_worker_and_serial_runs_are_identical(self, monkeypatch):
        # switch threads as often as the interpreter can, so that the
        # bi-LSTM's two directions interleave; the other ops start no thread
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for dtype in (np.float64, np.float32):
                for T, B in ((5, 3), (1, 1), (4, 2), (4, 1)):
                    for name, build, inputs, upstream in split_op_cases(T, B, T * B):
                        inputs = [ad.Tensor(t.data.astype(dtype),
                                            requires_grad=True) for t in inputs]
                        upstream = upstream.astype(dtype)
                        threaded = run_split(build, inputs, upstream, 2,
                                             monkeypatch, threshold=0)
                        serial = run_split(build, inputs, upstream, 1,
                                           monkeypatch, threshold=0)
                        assert threaded[2] == (name == "bilstm_sequence"), name
                        assert serial[2] == 0, name
                        assert threaded[0].dtype == dtype, name
                        np.testing.assert_array_equal(threaded[0], serial[0], name)
                        for a, b in zip(threaded[1], serial[1]):
                            assert a.dtype == dtype, name
                            np.testing.assert_array_equal(a, b, name)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("batch,hidden,cpus,threaded", [
        (32, 200, 2, True),    # paper-scale training step: 1.5 G
        (8, 200, 2, True),     # paper-scale dev eval: 384 M
        (32, 200, 1, False),   # one CPU
        (128, 16, 2, False),   # synthetic-scale training step: 5.2 M
        (512, 16, 2, False),   # synthetic-scale eval batch: 21 M
    ])
    def test_worker_runs_the_reverse_direction_of_large_steps(
            self, batch, hidden, cpus, threaded, monkeypatch):
        monkeypatch.setattr(ad, "_CPUS", cpus)
        main = threading.current_thread().name
        T = 300 if hidden == 200 else 40  # the paper's and the synthetic length
        with np.errstate(over="raise"):
            seen = ad._halves(
                lambda d: (threading.current_thread().name, np.geterr()["over"]),
                T * batch * 4 * hidden * hidden)
        assert seen[0] == (main, "raise")
        assert (seen[1][0] != main) == threaded
        assert seen[1][1] == "raise"  # the caller's error handling, either way

    # (T, batch, E, O, window), and whether the bi-LSTM's backward uses the
    # worker at that size
    @pytest.mark.parametrize("shape,threaded", [
        ((300, 32, 200, 400, 10), True),
        ((300, 8, 200, 400, 10), True),
        ((40, 128, 16, 32, 5), False),
        ((40, 512, 16, 32, 5), False),
    ], ids=["paper-train", "paper-eval", "synthetic-train", "synthetic-eval"])
    def test_ops_use_the_worker_at_paper_scale_only(self, shape, threaded,
                                                    monkeypatch):
        T, B, E, O, P = shape
        submitted = count_threaded_halves(monkeypatch)
        monkeypatch.setattr(ad, "_CPUS", 2)
        calls = {}

        def counted(name, layer, *args):
            """The layer's output; records its threaded halves in the
            forward and in its own backward rule."""
            before = len(submitted)
            out = layer(*args)
            node = out[0] if isinstance(out, tuple) else out
            forward = len(submitted) - before
            node._backward(np.ones_like(node.data))
            calls[name] = (forward, len(submitted) - before - forward)
            return out

        rng = np.random.default_rng(0)
        net = TextNetwork(rng, 30, E, O, P)
        for p in net.params.values():
            p.data = p.data.astype(np.float32)
        ids = net.char_vectors(rng.integers(0, 30, size=(B, T)))
        hs = counted("bilstm_sequence", net.bilstm_contexts, ids)
        g_seq = counted("context_projection", net.contextual_projection,
                        ids, hs)
        pooled = counted("window_max", net.windowed_max_pool, g_seq)
        counted("attention_pool", net.attention_pool, pooled)
        # every forward runs on the calling thread, and only the bi-LSTM's
        # backward splits
        assert calls == {name: (0, int(threaded and name == "bilstm_sequence"))
                         for name in calls}
        assert len(calls) == 4

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_worker_thread_outlives_a_call(self, fails, monkeypatch):
        monkeypatch.setattr(ad, "_CPUS", 2)
        ran = []

        def half(h):
            ran.append(threading.current_thread().name)
            if fails and h == 0:
                raise ValueError("first half")
            return h

        if fails:
            with pytest.raises(ValueError, match="first half"):
                ad._halves(half, ad._THREADED_WORK)
        else:
            assert ad._halves(half, ad._THREADED_WORK) == [0, 1]
        # the second half ran on its own thread, which has ended
        assert len(ran) == 2 and ran.count(threading.current_thread().name) == 1
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("geotweet-half")]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(ad, "_CPUS", 2)
        ad._halves(lambda h: h, ad._THREADED_WORK)  # a threaded call first
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = int(ad._halves(lambda h: h, ad._THREADED_WORK) != [0, 1])
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
        ids, table, weights, _ = bilstm_case(2, 1, 3, 4, seed=0)
        narrow = [ad.Tensor(np.zeros(shape))
                  for shape in ((3, 8), (2, 8), (8,))]
        with pytest.raises(ValueError, match="hidden sizes 4 and 2"):
            ad.bilstm_sequence(ids, table, weights[0], narrow)

    def test_weights_must_fit_the_input_width(self):
        ids, table, weights, _ = bilstm_case(2, 1, 3, 4, seed=0)
        wide = [ad.Tensor(np.zeros(shape)) for shape in ((5, 16), (4, 16), (16,))]
        with pytest.raises(ValueError, match=re.escape(
                "bilstm_sequence: input width 3 does not fit weights "
                "(5, 16), (4, 16), (16,)")):
            ad.bilstm_sequence(ids, table, wide, weights[1])


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
        hs = net.bilstm_contexts(net.char_vectors(ids))
        assert hs.shape == (2, 1, 1, net.hidden)

    def test_zero_weights_give_zero_states(self):
        net = make_net()
        for name, p in net.params.items():
            if "fwd" in name or "bwd" in name:
                p.data[...] = 0.0
        ids = np.array([[2, 3, 4]])
        hs = net.bilstm_contexts(net.char_vectors(ids))
        assert hs.shape == (2, 3, 1, net.hidden)
        np.testing.assert_allclose(hs.data, 0.0)

    def test_matches_scalar_reference(self):
        net = make_net(seed=4)
        ids = np.array([[2, 5, 3, 7]])
        fwd = net.bilstm_contexts(net.char_vectors(ids)).data[0]
        ref = scalar_lstm_reference(
            net.params["text.emb"].data[ids[0]].tolist(),
            net.params["text.fwd.Wx"].data.tolist(),
            net.params["text.fwd.Wh"].data.tolist(),
            net.params["text.fwd.b"].data.tolist(),
            net.hidden)
        assert fwd.shape[0] == len(ref) == 4
        for t in range(4):
            np.testing.assert_allclose(fwd[t, 0], ref[t], atol=1e-12)

    def test_backward_direction_matches_reversed_reference(self):
        net = make_net(seed=5)
        ids = np.array([[2, 5, 3]])
        bwd = net.bilstm_contexts(net.char_vectors(ids)).data[1]
        ref = scalar_lstm_reference(
            net.params["text.emb"].data[ids[0, ::-1]].tolist(),
            net.params["text.bwd.Wx"].data.tolist(),
            net.params["text.bwd.Wh"].data.tolist(),
            net.params["text.bwd.b"].data.tolist(),
            net.hidden)
        # bwd[t] consumed positions T-1..t, i.e. ref step T-1-t
        T = ids.shape[1]
        assert bwd.shape[0] == len(ref) == 3
        for t in range(T):
            np.testing.assert_allclose(bwd[t, 0], ref[T - 1 - t],
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
        ids = net.char_vectors(np.array([[2, 3, 4, 5]]))
        g = net.contextual_projection(ids, net.bilstm_contexts(ids))
        np.testing.assert_allclose(g.data, 0.0)

    def test_boundary_contexts_are_zero(self):
        # with recurrent weights zeroed, all contexts are zero, so every
        # position projects only its own character embedding
        net = make_net()
        for name in ("fwd.Wx", "fwd.Wh", "fwd.b", "bwd.Wx", "bwd.Wh", "bwd.b"):
            net.params[f"text.{name}"].data[...] = 0.0
        ids = net.char_vectors(np.array([[2, 3, 2]]))
        g = net.contextual_projection(ids, net.bilstm_contexts(ids))
        np.testing.assert_allclose(g.data[0], g.data[2], atol=1e-12)


def context_case(T, B, E, H, O, ids, vocab):
    rng = np.random.default_rng(T * B + vocab)
    inputs = [ad.Tensor(rng.standard_normal(shape), requires_grad=True)
              for shape in ((vocab, E), (2, T, B, H), (2 * H + E, O), (O,))]
    return np.asarray(ids), inputs, rng.standard_normal((T, B, O))


# (T, batch, ids, vocab): repeated ids, a vocab row no position uses, a
# one-char vocab, and a single position
ID_CASES = {
    "repeats": (4, 3, [[0, 2, 2], [2, 0, 2], [1, 1, 1], [2, 2, 0]], 4),
    "one-char": (3, 2, [[0, 0], [0, 0], [0, 0]], 1),
    "T=1": (1, 3, [[3, 0, 3]], 5),
}


class TestContextProjectionOp:
    @pytest.mark.parametrize("T", [1, 2, 7])
    def test_matches_the_take_concat_matmul_chain(self, T):
        rng = np.random.default_rng(T)
        B, E, H, O, V = 3, 4, 5, 6, 5
        ids = rng.integers(0, V, size=(T, B))
        inputs = [ad.Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((V, E), (2, T, B, H), (2 * H + E, O), (O,))]
        upstream = rng.standard_normal((T, B, O))
        fused = ad.context_projection(ids, *inputs)
        table, *rest = inputs
        chain = relu(chained_context_projection(ad.embedding(ids, table), *rest))
        assert fused.shape == (T, B, O)
        assert_matches_oracle(fused.data, chain.data)
        for got, want in zip(gradients(inputs, tsum(mul(fused, upstream))),
                             gradients(inputs, tsum(mul(chain, upstream)))):
            assert_matches_oracle(got, want)

    @pytest.mark.parametrize("case", list(ID_CASES))
    def test_matches_the_op_over_the_embedding(self, case):
        T, B, ids, vocab = ID_CASES[case]
        ids, inputs, upstream = context_case(T, B, 3, 4, 5, ids, vocab)
        fused = ad.context_projection(ids, *inputs)
        table, *rest = inputs
        oracle = relu(x_context_projection(ad.embedding(ids, table), *rest))
        assert_matches_oracle(fused.data, oracle.data)
        got = gradients(inputs, tsum(mul(fused, upstream)))
        for a, b in zip(got, gradients(inputs, tsum(mul(oracle, upstream)))):
            assert_matches_oracle(a, b)
        unused = np.setdiff1d(np.arange(vocab), ids)
        np.testing.assert_array_equal(got[0][unused], 0.0)

    # (T, batch, dtype, CPUs, threshold): a paper-length batch with two
    # CPUs, a synthetic one with one, and two float64 ones, the last with a
    # threshold that every call reaches
    @pytest.mark.parametrize("T,B,dtype,cpus,threshold", [
        (300, 32, np.float32, 2, None),
        (40, 128, np.float32, 1, None),
        (7, 3, np.float64, 1, None),
        (5, 4, np.float64, 2, 0),
    ])
    def test_each_context_block_of_dW_is_one_product(self, T, B, dtype, cpus,
                                                     threshold, monkeypatch):
        # each block is one product over every position its states feed,
        # made on the calling thread
        E, H, O, V = 16, 32, 64, 9
        ids = np.random.default_rng(T).integers(0, V, size=(T, B))
        ids, inputs, upstream = context_case(T, B, E, H, O, ids, V)
        inputs = [ad.Tensor(t.data.astype(dtype), requires_grad=True)
                  for t in inputs]
        upstream = upstream.astype(dtype)
        out, grads, sent = run_split(
            lambda *inputs: ad.context_projection(ids, *inputs), inputs,
            upstream, cpus, monkeypatch, threshold)
        assert sent == 0
        dW = grads[2]
        assert dW.dtype == dtype
        g2d = (upstream * (out > 0)).reshape(T * B, O)
        h_fwd, h_bwd = (inputs[1].data[d].reshape(T * B, H) for d in (0, 1))
        np.testing.assert_array_equal(dW[:H], h_fwd[:-B].T @ g2d[B:])
        np.testing.assert_array_equal(dW[H + E:], h_bwd[B:].T @ g2d[:-B])

    def test_ends_get_no_context_gradient(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 3, size=(4, 2))
        table = ad.Tensor(rng.standard_normal((3, 3)))
        hs = ad.Tensor(rng.standard_normal((2, 4, 2, 5)), requires_grad=True)
        W, b = ad.Tensor(rng.standard_normal((13, 6))), ad.Tensor(np.zeros(6))
        tsum(ad.context_projection(ids, table, hs, W, b)).backward()
        # the last forward state and the first backward one are nobody's context
        np.testing.assert_array_equal(hs.grad[0, -1], 0.0)
        np.testing.assert_array_equal(hs.grad[1, 0], 0.0)
        assert (hs.grad[0, :-1] != 0).all() and (hs.grad[1, 1:] != 0).all()

    @pytest.mark.parametrize("hs_shape,w_shape,b_shape", [
        ((2, 3, 2, 4), (12, 5), (5,)),   # W rows are not 2H + E
        ((2, 4, 2, 5), (13, 5), (5,)),   # states of another length
        ((1, 3, 2, 5), (13, 5), (5,)),   # one direction only
        ((2, 3, 2, 5), (13, 5), (4,)),   # bias width is not O
    ])
    def test_shape_mismatch_rejected(self, hs_shape, w_shape, b_shape):
        with pytest.raises(ValueError, match="context_projection"):
            ad.context_projection(np.zeros((3, 2), dtype=int), np.zeros((4, 3)),
                                  np.zeros(hs_shape), np.zeros(w_shape),
                                  np.zeros(b_shape))

    def test_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="context_projection: id out of range"):
            ad.context_projection(np.full((3, 2), 4), np.zeros((4, 3)),
                                  np.zeros((2, 3, 2, 5)), np.zeros((13, 5)),
                                  np.zeros(5))


class TestBilstmSequenceOverIds:
    @pytest.mark.parametrize("case", list(ID_CASES))
    def test_matches_the_op_over_the_embedding(self, case):
        T, B, ids, vocab = ID_CASES[case]
        ids = np.asarray(ids)
        _, table, weights, upstream = bilstm_case(T, B, 3, 4, seed=vocab,
                                                  vocab=vocab)
        inputs = [table, *weights[0], *weights[1]]
        fused = ad.bilstm_sequence(ids, table, *weights)
        oracle = x_bilstm_sequence(ad.embedding(ids, table), *weights)
        assert_matches_oracle(fused.data, oracle.data)
        got = gradients(inputs, tsum(mul(fused, upstream)))
        for a, b in zip(got, gradients(inputs, tsum(mul(oracle, upstream)))):
            assert_matches_oracle(a, b)
        unused = np.setdiff1d(np.arange(vocab), ids)
        np.testing.assert_array_equal(got[0][unused], 0.0)

    def test_ids_must_be_time_major_and_in_range(self):
        _, table, weights, _ = bilstm_case(2, 1, 3, 4, seed=0)
        with pytest.raises(ValueError, match="not \\(T, batch\\)"):
            ad.bilstm_sequence(np.zeros(3, dtype=int), table, *weights)
        with pytest.raises(ValueError, match="bilstm_sequence: id out of range"):
            ad.bilstm_sequence(np.full((2, 1), 7), table, *weights)


class TestRowLengths:
    """Each row is read to its length n: the three ops mask what lies past
    it, and TextNetwork.forward cuts its batch to the positions that can
    change an output."""

    # T = 6: n = 1, 1 < n < T and n = T; then n = 1 for every row
    @pytest.mark.parametrize("lengths", [[1, 4, 6, 2], [1, 1, 1, 1]],
                             ids=["mixed", "n=1"])
    def test_ops_pass_finite_difference_checks(self, lengths):
        cases = split_op_cases(6, 4, seed=7, lengths=np.array(lengths))
        for name, build, inputs, _ in cases:
            if name != "window_max":
                finite_difference_check(
                    {f"p{i}": t for i, t in enumerate(inputs)},
                    lambda: tsum(ad.tanh(build(*inputs))), max_coords=4)

    def test_lengths_of_T_are_no_lengths_bit_for_bit(self):
        T, B = 5, 3
        for dtype in (np.float64, np.float32):
            for (name, build, inputs, upstream), (_, build_none, _, _) in zip(
                    split_op_cases(T, B, seed=3, lengths=np.full(B, T)),
                    split_op_cases(T, B, seed=3)):
                inputs = [ad.Tensor(t.data.astype(dtype), requires_grad=True)
                          for t in inputs]
                upstream = upstream.astype(dtype)
                runs = [(out.data, gradients(inputs, tsum(mul(out, upstream))))
                        for out in (build(*inputs), build_none(*inputs))]
                np.testing.assert_array_equal(runs[0][0], runs[1][0], name)
                for a, b in zip(runs[0][1], runs[1][1]):
                    np.testing.assert_array_equal(a, b, name)
        net = make_net(seed=3)
        ids = np.random.default_rng(3).integers(0, 9, size=(B, 7))
        params = list(net.params.values())
        runs = [net.forward(ids, np.full(B, 7)), net.forward(ids)]
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(*(gradients(params, tsum(mul(f, f))) for f, _ in runs)):
            np.testing.assert_array_equal(a, b)

    def test_reverse_states_read_each_row_from_its_end(self):
        ids, table, weights, _ = bilstm_case(6, 3, 4, 5, seed=1)
        lengths = np.array([2, 6, 1])
        hs = ad.bilstm_sequence(ids, table, *weights, lengths=lengths).data
        for b, n in enumerate(lengths):
            alone = ad.bilstm_sequence(ids[:n, b:b + 1], table, *weights).data
            assert_matches_oracle(hs[:, :n, b], alone[:, :, 0])
            np.testing.assert_array_equal(hs[1, n:, b], 0.0)

    # T = 9, P = 3: with n = 1, 4 and 2 the batch is cut to 6 positions;
    # n = 9 = T and n = 8, past T - P + 1, leave it whole
    @pytest.mark.parametrize("lengths", [[1, 4, 2], [1, 4, 9, 8, 2]],
                             ids=["cut", "whole"])
    def test_each_row_matches_its_characters_alone(self, lengths):
        lengths = np.array(lengths)
        B, T = len(lengths), 9
        net = make_net(vocab_size=8, emb=3, out=5, window=3, attn=4, seed=B)
        rng = np.random.default_rng(B)
        ids = rng.integers(1, 8, size=(B, T))
        ids[np.arange(T) >= lengths[:, None]] = PAD_ID
        np.testing.assert_array_equal(text_lengths(ids), lengths)
        upstream = rng.standard_normal((B, 5))
        f, weights = net.forward(ids, lengths)
        rows = [text_row_forward(net, ids[b], n) for b, n in enumerate(lengths)]
        assert weights.shape == (B, T - 2)
        for b, (f_row, w_row) in enumerate(rows):
            assert_matches_oracle(f.data[b], f_row.data[0])
            assert_matches_oracle(weights.data[b], w_row[0])
            np.testing.assert_array_equal(weights.data[b, lengths[b]:], 0.0)
        params = list(net.params.values())
        oracle = tsum(ad.concat([mul(f_row, upstream[b:b + 1])
                                 for b, (f_row, _) in enumerate(rows)]))
        for got, want in zip(gradients(params, tsum(mul(f, upstream))),
                             gradients(params, oracle)):
            assert_matches_oracle(got, want)

    @pytest.mark.parametrize("lengths", [[0, 2], [2, 7], [2], [2.0, 3.0]])
    def test_lengths_outside_1_to_T_are_rejected(self, lengths):
        for name, build, inputs, _ in split_op_cases(6, 2, seed=0,
                                                     lengths=np.array(lengths)):
            # a span may start past the end of a text that fills its row
            if name == "window_max" or (name == "attention_pool"
                                        and lengths == [2, 7]):
                continue
            with pytest.raises(ValueError, match=f"{name}: lengths must be 2 "
                                                 f"integers in 1.."):
                build(*inputs)

    def test_text_lengths_count_to_the_last_character(self):
        ids = np.array([[3, 0, 0], [0, 0, 0], [2, 2, 2], [4, 5, 0]])
        np.testing.assert_array_equal(text_lengths(ids), [1, 1, 3, 2])


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

    @pytest.mark.parametrize("Wv_shape, v_shape", [((4, 3), (3, 1)),   # Wv rows are not O
                                                   ((5, 3), (4, 1))])  # v rows are not A
    def test_weights_must_fit_the_spans(self, Wv_shape, v_shape):
        with pytest.raises(ValueError, match=re.escape(
                f"attention_pool: spans (2, 1, 5) do not fit weights {Wv_shape}, "
                f"(3,), {v_shape}")):
            ad.attention_pool(np.zeros((2, 1, 5)), np.zeros(Wv_shape), np.zeros(3),
                              np.zeros(v_shape))


def test_full_network_gradient_check():
    net = make_net(vocab_size=8, emb=3, out=5, window=3, attn=4, seed=9)
    ids = np.random.default_rng(4).integers(0, 8, size=(2, 7))

    def loss():
        f, _ = net.forward(ids)
        return tsum(mul(f, f))

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
