"""Minimal dense-tensor engine with reverse-mode differentiation.

Values are numpy arrays of one compute dtype, float64 unless a
``compute_dtype`` context sets another. Every op records a backward rule;
calling ``backward`` on a scalar populates ``grad`` on every reachable
tensor with ``requires_grad`` set. Gradients accumulate until zeroed.
``backward`` frees the graph as it goes, so each forward gets one backward.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

# The dtype every new Tensor takes. Ops build their outputs through Tensor
# and size their own buffers from their inputs, so one value here sets the
# dtype of a whole forward and backward.
_compute_dtype = np.dtype(np.float64)


@contextmanager
def compute_dtype(dtype):
    """Build Tensors in ``dtype`` inside the block, then restore the previous
    dtype.

    The setting is one module-level value, not per thread: the bi-LSTM
    worker thread runs only raw numpy and never builds a Tensor.
    """
    global _compute_dtype
    previous, _compute_dtype = _compute_dtype, np.dtype(dtype)
    try:
        yield
    finally:
        _compute_dtype = previous


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=_compute_dtype)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if g is not None and node.requires_grad:
                node._accumulate(g)
            rule, parents = node._backward, node._parents
            if rule is None:
                continue
            # free the graph as it goes: what a rule saved dies with it
            node._backward, node._parents = _freed, ()
            if g is None:
                continue
            for parent, pg in zip(parents, rule(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # operator sugar: basic slicing
    def __getitem__(self, key):
        return take(self, key)


def _freed(g):
    raise ValueError("backward: this graph was freed by an earlier backward(); "
                     "run the forward again for another backward")


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_graph(*tensors):
    # a freed node keeps a rule, so a graph through it fails in backward
    return any(t.requires_grad or t._backward is not None for t in tensors)


def _make(data, parents, backward):
    out = Tensor(data)
    if _needs_graph(*parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def _check_broadcast(a, b, op):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                   if a.data.ndim > 2 else a.data.T @ g),
    )


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tensors, backward)


def reshape(a, shape):
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def take(a, key):
    """Basic slicing/indexing with gradient scatter."""
    a = as_tensor(a)

    def backward(g):
        out = np.zeros_like(a.data)
        out[key] = g
        return (out,)

    return _make(a.data[key], (a,), backward)


def tanh(a):
    a = as_tensor(a)
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def rbf(u, mu, sigma):
    """Gaussian bin activations exp(-(u - mu)^2 / 2 sigma^2) of a (batch,)
    array ``u`` against (bins,) means and widths: (batch, bins).

    ``u`` is data, so only ``mu`` and ``sigma`` get gradients.
    """
    mu, sigma = as_tensor(mu), as_tensor(sigma)
    d = np.asarray(u, dtype=_compute_dtype).reshape(-1, 1) - mu.data
    var = sigma.data * sigma.data
    y = np.exp(-(d * d) / (2 * var))

    def backward(g):
        g_mu = g * y * d / var
        return g_mu.sum(axis=0), (g_mu * d).sum(axis=0) / sigma.data

    return _make(y, (mu, sigma), backward)


def window_max(a, P):
    """Elementwise max over each length-``P`` window along axis 0: T-P+1 rows.

    The gradient of each output goes to the first maximum in its window.
    With ``P`` equal to the length it is a max-reduce over axis 0.
    """
    a = as_tensor(a)
    T = a.shape[0]
    if not 1 <= P <= T:
        raise ValueError(f"pooling window {P} not in 1..{T} (the sequence length)")
    spans = T - P + 1
    y = a.data[:spans].copy()
    for k in range(1, P):
        np.maximum(y, a.data[k:k + spans], out=y)

    def backward(g):
        out = np.zeros_like(a.data)
        unrouted = np.ones(y.shape, dtype=bool)
        for k in range(P):
            hit = (a.data[k:k + spans] == y) & unrouted
            out[k:k + spans] += g * hit
            unrouted ^= hit
        return (out,)

    return _make(y, (a,), backward)


def _check_lstm(x, Wx, Wh, b, op):
    T, B, E = x.shape
    H = Wh.shape[0]
    if Wx.shape != (E, 4 * H) or Wh.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise ValueError(
            f"{op}: input {x.shape} does not fit weights "
            f"{Wx.shape}, {Wh.shape}, {b.shape}")


def _lstm_steps(T, reverse):
    return range(T)[::-1] if reverse else range(T)


def _lstm_forward(x, Wx, Wh, b, reverse, hs):
    """One LSTM direction over a raw (T, batch, E) input from a zero state:
    writes the (T, batch, H) hidden states into ``hs`` and returns the gate
    activations and cells that backward reads.

    The 4H gate columns are input, forget, cell candidate, output. With
    ``reverse`` the steps run from T-1 down to 0, so state t has read
    positions t..T-1. The input projection of all steps is one GEMM.
    """
    T, B, E = x.shape
    H = Wh.shape[0]
    # pre-activations, overwritten step by step with the gate activations
    acts = (x.reshape(T * B, E) @ Wx + b).reshape(T, B, 4 * H)
    cells = np.empty((T, B, H), dtype=x.dtype)
    h = c = np.zeros((B, H), dtype=x.dtype)
    for t in _lstm_steps(T, reverse):
        z = acts[t]
        z += h @ Wh
        g = np.tanh(z[:, 2 * H:3 * H])
        z[...] = _sigmoid(z)
        z[:, 2 * H:3 * H] = g
        c = z[:, H:2 * H] * c + z[:, :H] * g
        h = z[:, 3 * H:] * np.tanh(c)
        cells[t] = c
        hs[t] = h
    return acts, cells


def _lstm_backward(grad_h, x, Wx, Wh, hs, acts, cells, reverse):
    """BPTT of one ``_lstm_forward`` direction in one loop, then one GEMM
    each for dx, dWx and dWh: (dx, dWx, dWh, db).

    The gate derivatives are formed one step at a time, so besides the
    saved arrays only the (T, batch, 4H) pre-activation gradient is held.
    """
    T, B, E = x.shape
    H = Wh.shape[0]
    steps = _lstm_steps(T, reverse)
    dz = np.empty_like(acts)
    Wh_T = Wh.T
    zero = np.zeros((B, H), dtype=x.dtype)
    dh_next = dc_next = zero
    for n in reversed(range(T)):
        t = steps[n]
        i, f, g, o = (acts[t, :, k * H:(k + 1) * H] for k in range(4))
        # the step before t in reading order left c_prev; the first, zeros
        c_prev = cells[steps[n - 1]] if n else zero
        tanh_c = np.tanh(cells[t])
        dh = grad_h[t] + dh_next
        dc = dh * (o * (1.0 - tanh_c * tanh_c)) + dc_next
        d = dz[t]
        np.multiply(g * i * (1.0 - i), dc, out=d[:, :H])
        np.multiply(c_prev * f * (1.0 - f), dc, out=d[:, H:2 * H])
        np.multiply(i * (1.0 - g * g), dc, out=d[:, 2 * H:3 * H])
        np.multiply(tanh_c * o * (1.0 - o), dh, out=d[:, 3 * H:])
        dc_next = dc * f
        dh_next = d @ Wh_T
    # each step at ``later`` starts from the state left at ``earlier``
    later, earlier = ((slice(None, -1), slice(1, None)) if reverse
                      else (slice(1, None), slice(None, -1)))
    dz2d = dz.reshape(T * B, 4 * H)
    return ((dz2d @ Wx.T).reshape(T, B, E), x.reshape(T * B, E).T @ dz2d,
            hs[earlier].reshape(-1, H).T @ dz[later].reshape(-1, 4 * H),
            dz2d.sum(axis=0))


# Multiply-adds of one recurrent step, batch x H x 4H, from which
# bilstm_sequence runs its two directions on two threads. Below it the
# threads mostly trade the interpreter lock over small arrays, which was
# slower than running the directions one after the other.
_CONCURRENT_STEP_MACS = 2 ** 20
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _new_worker():
    """The executor that runs the reverse direction; its thread starts on
    the first submit."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="geotweet-lstm")


_new_worker()
if hasattr(os, "register_at_fork"):
    # a forked child has no copy of the thread, and would wait on it forever
    os.register_at_fork(after_in_child=_new_worker)


def _per_direction(fn, batch, hidden):
    """[fn(0), fn(1)], with fn(1) on the worker thread while fn(0) runs here
    when there is a second CPU and a recurrent step is large enough."""
    if _CPUS < 2 or batch * hidden * 4 * hidden < _CONCURRENT_STEP_MACS:
        return [fn(0), fn(1)]
    errors = np.geterr()  # per thread: the worker takes the caller's

    def reverse():
        with np.errstate(**errors):
            return fn(1)

    future = _worker.submit(reverse)
    try:
        first = fn(0)
    finally:
        second = future.result()
    return [first, second]


def bilstm_sequence(x, fwd_weights, bwd_weights):
    """Both directions of a bidirectional LSTM over a (T, batch, E) input.

    ``fwd_weights`` and ``bwd_weights`` are (Wx, Wh, b) triples, of shapes
    (E, 4H), (H, 4H) and (4H,). Returns a (2, T, batch, H) tensor: the
    forward states, then the reverse states, as ``_lstm_forward`` runs
    them. The directions share only the input, so when a
    recurrent step is large the reverse one runs on a worker thread, in
    forward and in backward; numpy releases the interpreter lock inside
    its array loops and BLAS calls. The input gradient is the forward
    direction's plus the reverse one's, in that order either way.
    """
    x = as_tensor(x)
    weights = [tuple(as_tensor(w) for w in ws) for ws in (fwd_weights, bwd_weights)]
    for ws in weights:
        _check_lstm(x, *ws, "bilstm_sequence")
    T, B, _ = x.shape
    H = weights[0][1].shape[0]
    if weights[1][1].shape[0] != H:
        raise ValueError(f"bilstm_sequence: hidden sizes {H} and "
                         f"{weights[1][1].shape[0]} differ")
    hs = np.empty((2, T, B, H), dtype=x.data.dtype)
    raw = [[w.data for w in ws] for ws in weights]
    saved = _per_direction(
        lambda d: _lstm_forward(x.data, *raw[d], d == 1, hs[d]), B, H)

    def backward(g):
        (dx_f, *dw_f), (dx_b, *dw_b) = _per_direction(
            lambda d: _lstm_backward(g[d], x.data, raw[d][0], raw[d][1], hs[d],
                                     *saved[d], d == 1), B, H)
        return (dx_f + dx_b, *dw_f, *dw_b)

    return _make(hs, (x, *weights[0], *weights[1]), backward)


def context_projection(xs, hs, W, b):
    """Pre-activation of [h_fwd(t-1) ; x_t ; h_bwd(t+1)] @ W + b at every t.

    ``xs`` is (T, batch, E) and ``hs`` the (2, T, batch, H) states of
    ``bilstm_sequence``; the contexts beyond either end are zero. Returns
    (T, batch, O). Each row block of the (2H+E, O) ``W`` multiplies its
    array unshifted, and the two context products are added one position
    apart, so no shifted or concatenated copy is made in either pass.
    """
    xs, hs, W, b = (as_tensor(t) for t in (xs, hs, W, b))
    T, B, E = xs.shape
    H = hs.shape[-1]
    O = W.shape[1]
    if hs.shape != (2, T, B, H) or W.shape[0] != 2 * H + E or b.shape != (O,):
        raise ValueError(f"context_projection: inputs {xs.shape}, {hs.shape} "
                         f"do not fit weights {W.shape}, {b.shape}")
    W_fwd, W_x, W_bwd = W.data[:H], W.data[H:H + E], W.data[H + E:]
    # forward states 0..T-2 are left contexts of 1..T-1, reverse states
    # 1..T-1 right contexts of 0..T-2; contiguous slabs, so no copy
    h_fwd = hs.data[0, :-1].reshape(-1, H)
    h_bwd = hs.data[1, 1:].reshape(-1, H)
    x2d = xs.data.reshape(T * B, E)
    out = (x2d @ W_x + b.data).reshape(T, B, O)
    out[1:] += (h_fwd @ W_fwd).reshape(T - 1, B, O)
    out[:-1] += (h_bwd @ W_bwd).reshape(T - 1, B, O)

    def backward(g):
        g2d = g.reshape(T * B, O)
        g_next, g_prev = g[1:].reshape(-1, O), g[:-1].reshape(-1, O)
        dhs = np.zeros(hs.shape, dtype=hs.data.dtype)  # C order: slabs are views
        np.matmul(g_next, W_fwd.T, out=dhs[0, :-1].reshape(-1, H))
        np.matmul(g_prev, W_bwd.T, out=dhs[1, 1:].reshape(-1, H))
        dW = np.concatenate([h_fwd.T @ g_next, x2d.T @ g2d, h_bwd.T @ g_prev])
        return (g2d @ W_x.T).reshape(T, B, E), dhs, dW, g2d.sum(axis=0)

    return _make(out, (xs, hs, W, b), backward)


def attention_pool(spans, Wv, bv, v):
    """Attention-weighted mean over the S spans of a (S, batch, O) tensor.

    Span s of example b scores tanh(spans[s, b] @ Wv + bv) @ v, the scores
    of each example are softmaxed over its spans, and the result is the
    (batch, O) weighted mean. Also returns the (batch, S) weights, as a
    Tensor outside the graph: no loss reads them.
    """
    spans, Wv, bv, v = (as_tensor(t) for t in (spans, Wv, bv, v))
    S, B, O = spans.shape
    A = bv.shape[0]
    if Wv.shape != (O, A) or v.shape != (A, 1):
        raise ValueError(f"attention_pool: spans {spans.shape} do not fit "
                         f"weights {Wv.shape}, {bv.shape}, {v.shape}")
    flat = spans.data.reshape(S * B, O)
    hidden = np.tanh(flat @ Wv.data + bv.data)
    scores = (hidden @ v.data).reshape(S, B)
    e = np.exp(scores - scores.max(axis=0))
    w = e / e.sum(axis=0)

    def backward(g):
        g_w = (spans.data * g).sum(axis=2)
        g_scores = ((g_w - (g_w * w).sum(axis=0)) * w).reshape(S * B, 1)
        g_pre = (g_scores @ v.data.T) * (1.0 - hidden * hidden)
        g_spans = w[:, :, None] * g + (g_pre @ Wv.data.T).reshape(S, B, O)
        return g_spans, flat.T @ g_pre, g_pre.sum(axis=0), hidden.T @ g_scores

    pooled = _make((w[:, :, None] * spans.data).sum(axis=0), (spans, Wv, bv, v),
                   backward)
    return pooled, Tensor(w.T)


def embedding(ids, table):
    """Look up rows of ``table`` for an integer id array."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding: id out of range for table with {table.shape[0]} rows"
        )

    def backward(g):
        out = np.zeros_like(table.data)
        np.add.at(out, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (out,)

    return _make(table.data[ids], (table,), backward)


def dropout(a, keep_prob, rng, train):
    """Inverted dropout: scales by 1/keep_prob at train time, identity at eval."""
    a = as_tensor(a)
    if not train or keep_prob >= 1.0:
        return a
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout: keep_prob must be in (0,1], got {keep_prob}")
    mask = ((rng.random(a.shape) < keep_prob) / keep_prob).astype(a.data.dtype)
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def gaussian_noise(a, sigma, rng):
    """Add zero-mean Gaussian noise with std ``sigma``; gradient passes through."""
    a = as_tensor(a)
    if sigma == 0.0:
        return a
    noise = rng.normal(0.0, sigma, a.shape).astype(a.data.dtype)
    return _make(a.data + noise, (a,), lambda g: (g,))


def extrema_penalty(r, alpha):
    """alpha * mean |(r - 1)(r + 1)| over every element of ``r``: zero when
    each is -1 or +1, and its gradient pushes each toward the nearer one."""
    r = as_tensor(r)
    gap = (r.data - 1.0) * (r.data + 1.0)
    alpha = gap.dtype.type(alpha)

    def backward(g):
        return (np.sign(gap) * (2.0 * r.data) * (g * alpha / gap.size),)

    return _make(np.array(np.abs(gap).mean() * alpha), (r,), backward)


def cross_entropy(logits, label_ids):
    """Mean softmax cross-entropy of a batch x K ``logits`` tensor against
    integer labels.

    Each row's loss is logsumexp(row) - row[label], formed after subtracting
    the row maximum, so it stays exact for any finite logits. A NaN or +inf
    logit, or -inf at the label, makes the loss non-finite. The gradient is
    (softmax - onehot)/n.
    """
    logits = as_tensor(logits)
    labels = np.asarray(label_ids)
    n, k = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"cross_entropy: label out of range for {k} classes")
    rows = np.arange(n)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=-1, keepdims=True)

    def backward(g):
        grad = e / sums
        grad[rows, labels] -= 1.0
        return (grad * (g / n),)

    return _make(np.array((np.log(sums[:, 0]) - z[rows, labels]).mean()),
                 (logits,), backward)
