"""Minimal dense-tensor engine with reverse-mode differentiation.

Values are numpy float arrays. A Tensor keeps the dtype of float data and
turns any other data into float64, and every op computes in the dtype of
its inputs, so a graph runs in the dtype of its leaves. Every op records a
backward rule that returns one gradient per parent; calling ``backward`` on
a scalar populates ``grad`` on every reachable tensor with ``requires_grad``
set. Gradients accumulate until zeroed. ``backward`` runs the graph newest
first in creation order and frees it as it goes, so each forward gets one
backward.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_MADE = itertools.count()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_made")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self._made = next(_MADE)

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
        order, stack = {}, [self]
        while stack:
            node = stack.pop()
            if node._made not in order:
                order[node._made] = node
                stack.extend(node._parents)
        # newest first is a topological order: a node is made after its parents
        grads = {self._made: np.ones_like(self.data)}
        for made in sorted(order, reverse=True):
            node = order.pop(made)
            g = grads.pop(made)
            if node.requires_grad:
                node._accumulate(g)
            rule, parents = node._backward, node._parents
            if rule is None:
                continue
            # free the graph as it goes: a popped node dies with what its rule saved
            node._backward, node._parents = _freed, ()
            for p, pg in zip(parents, rule(g)):
                grads[p._made] = grads[p._made] + pg if p._made in grads else pg


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
    """Product of two 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: tuple(np.split(g, splits, axis=axis)))


def tanh(a):
    a = as_tensor(a)
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def rbf(u, mu, sigma):
    """Gaussian bin activations exp(-(u - mu)^2 / 2 sigma^2) of a (batch,)
    array ``u`` against (bins,) means and widths: (batch, bins).

    ``u`` is data, taken in ``mu``'s dtype, so only ``mu`` and ``sigma`` get
    gradients.
    """
    mu, sigma = as_tensor(mu), as_tensor(sigma)
    d = np.asarray(u, dtype=mu.data.dtype).reshape(-1, 1) - mu.data
    var = sigma.data * sigma.data
    y = np.exp(-(d * d) / (2 * var))

    def backward(g):
        g_mu = g * y * d / var
        return g_mu.sum(axis=0), (g_mu * d).sum(axis=0) / sigma.data

    return _make(y, (mu, sigma), backward)


# Work, in multiply-adds or comparisons, from which an op runs its two
# halves on two threads. Measured on 2 vCPUs in float32: every text op at
# paper scale and batch 32 (37 M for window_max's routing, 1.5 G for the
# others) ran 1.1-1.9x faster threaded, while at synthetic scale
# the bi-LSTM's threads mostly traded the interpreter lock over small
# arrays and its batch-128 step (5.2 M) ran 2x slower. The largest
# synthetic op, 21 M at batch 512, stays below.
_THREADED_WORK = 2 ** 25
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _halves(fn, work):
    """[fn(0), fn(1)], with fn(1) on a thread of its own while fn(0) runs
    here when there is a second CPU and ``work`` reaches ``_THREADED_WORK``.

    The two calls must write disjoint memory. Both always run, whatever the
    CPU count, so an op's result does not depend on where they ran. numpy
    releases the interpreter lock inside its array loops and BLAS calls. The
    thread ends before this returns, so none outlives an op or a fork.
    """
    if _CPUS < 2 or work < _THREADED_WORK:
        return [fn(0), fn(1)]
    errors = np.geterr()  # per thread: the worker takes the caller's
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="geotweet-half",
                            initializer=lambda: np.seterr(**errors)) as pool:
        second = pool.submit(fn, 1)
        first = fn(0)
    return [first, second.result()]


def _half(h, n):
    """Half ``h`` of range(n) as a slice."""
    cut = n // 2
    return slice(0, cut) if h == 0 else slice(cut, n)


def _to_first_max(x, y, g, out):
    """Add ``g`` into ``out`` where each window of ``x`` first holds its max ``y``."""
    unrouted = np.ones(y.shape, dtype=bool)
    for k in range(len(x) - len(y) + 1):
        hit = (x[k:k + len(y)] == y) & unrouted
        out[k:k + len(y)] += g * hit
        unrouted ^= hit


def window_max(a, P):
    """Elementwise max over each length-``P`` window along axis 0: T-P+1 rows.

    The gradient of each output goes to the first maximum in its window.
    With ``P`` equal to the length it is a max-reduce over axis 0. The
    forward is one max over a sliding-window view. The backward routes in
    two ``_halves`` of the batch axis 1: windows overlap along axis 0,
    examples do not.
    """
    a = as_tensor(a)
    T, batch = a.shape[:2]
    if not 1 <= P <= T:
        raise ValueError(f"pooling window {P} not in 1..{T} (the sequence length)")
    y = sliding_window_view(a.data, P, axis=0).max(axis=-1)

    def backward(g):
        out = np.zeros_like(a.data)

        def route(h):
            cols = _half(h, batch)
            _to_first_max(a.data[:, cols], y[:, cols], g[:, cols], out[:, cols])

        _halves(route, y.size * P)
        return (out,)

    return _make(y, (a,), backward)


def span_conv_max(x, W, b):
    """ReLU of the max over the S = T-Q+1 spans of sum_q x[s+q] @ W_q + b,
    where W_q is row block q of the (Q*E, O) ``W``: (batch, O) from a
    (T, batch, E) ``x``.

    Each W_q multiplies one unshifted, contiguous slab of ``x``, so no window
    is copied. The gradient of each output goes to the first maximum over
    its spans, and the ReLU, being monotone, runs once, after the max.
    """
    x, W, b = (as_tensor(t) for t in (x, W, b))
    if (x.data.ndim != 3 or W.data.ndim != 2 or W.shape[0] % x.shape[2]
            or b.shape != W.shape[1:]):
        raise ValueError(f"span_conv_max: input {x.shape} does not fit weights "
                         f"{W.shape}, {b.shape}")
    T, B, E = x.shape
    Q = W.shape[0] // E
    if not 1 <= Q <= T:
        raise ValueError(f"span_conv_max: span {Q} not in 1..{T} (the sequence length)")
    n = (T - Q + 1) * B
    # slab q holds rows q*B.. of x; its row s*B + k starts span s of example k
    slabs = [slice(q * B, q * B + n) for q in range(Q)]
    flat, blocks = x.data.reshape(T * B, E), np.split(W.data, Q)
    pre = sum(flat[r] @ w for r, w in zip(slabs, blocks)) + b.data
    pre = pre.reshape(-1, B, W.shape[1])
    top = pre.max(axis=0)

    def backward(g):
        g_top, g_pre = g * (top > 0), np.zeros((n, W.shape[1]), pre.dtype)
        _to_first_max(pre, top[None], g_top[None], g_pre.reshape(pre.shape))
        dx = np.zeros_like(flat)
        for r, w in zip(slabs, blocks):
            dx[r] += g_pre @ w.T
        dW = np.concatenate([flat[r].T @ g_pre for r in slabs])
        return dx.reshape(x.shape), dW, g_top.sum(axis=0)

    return _make(np.maximum(top, 0), (x, W, b), backward)


def checked_ids(ids, table, op="embedding"):
    """``ids`` as an integer array, each a row of ``table``, or a ValueError
    naming ``op``."""
    ids = np.asarray(ids)
    rows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ValueError(f"{op}: id out of range for table with {rows} rows")
    return ids


# Rows of a per-position gradient that _Lookup.sum_by_id copies at a time:
# bounds its temporary array.
_SUM_ROWS = 2048


class _Lookup:
    """The positions of a checked integer id array grouped by id, for ops
    that read a table row at every position but are linear in it.

    Such an op works on ``rows``, each table row the ids pick, once and in
    id order, and ``inv`` maps each position, in C order, to its row. The
    gradient of ``rows`` is then one sum per id over its positions.
    """

    def __init__(self, ids, table):
        self.ids = ids.reshape(-1)
        counts = np.bincount(self.ids, minlength=table.shape[0])
        self.present = np.flatnonzero(counts)
        self.inv = (np.cumsum(counts > 0) - 1)[self.ids]
        # where each id's positions start and end in ``sum_by_id``'s order
        self.bounds = [0, *np.cumsum(counts[self.present]).tolist()]
        self.table = table
        self.rows = table.data[self.present]

    def sum_by_id(self, g):
        """The rows of a (positions, width) ``g`` summed per id, in blocks
        of at most ``_SUM_ROWS`` positions: (len(rows), width)."""
        order = np.argsort(self.ids, kind="stable")  # positions by id
        out = np.empty((len(self.present), g.shape[1]), dtype=g.dtype)
        for k, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
            out[k] = sum(g[order[i:min(i + _SUM_ROWS, hi)]].sum(axis=0)
                         for i in range(lo, hi, _SUM_ROWS))
        return out

    def scatter(self, d_rows):
        """The table gradient whose picked rows are ``d_rows``, zero elsewhere."""
        out = np.zeros_like(self.table.data)
        out[self.present] = d_rows
        return out


def _past_lengths(lengths, T, B, op, limit=None):
    """The (T, batch) mask of the positions at or after each row's length
    n; none when ``lengths`` is None. A ValueError names ``op`` unless
    ``lengths`` holds one integer per row in 1..``limit`` (default T)."""
    if lengths is None:
        return np.zeros((T, B), dtype=bool)
    n = np.asarray(lengths)
    limit = T if limit is None else limit
    if (n.shape != (B,) or n.dtype.kind not in "iu"
            or (B and not 1 <= n.min() <= n.max() <= limit)):
        raise ValueError(f"{op}: lengths must be {B} integers in 1..{limit}")
    return np.arange(T)[:, None] >= n


def _check_lstm(E, Wx, Wh, b, op):
    H = Wh.shape[0]
    if Wx.shape != (E, 4 * H) or Wh.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise ValueError(
            f"{op}: input width {E} does not fit weights "
            f"{Wx.shape}, {Wh.shape}, {b.shape}")


def _lstm_forward(acts, Wh, hs):
    """One LSTM direction from a zero state over the (T, batch, 4H) input
    pre-activations ``acts``: writes the hidden states into ``hs``, overwrites
    ``acts`` with the gate activations and returns the cells. The calling op
    owns both, and its one backward writes its gradient over the gates.

    The 4H gate columns are input, forget, cell candidate, output. The steps
    run from 0 to T-1; the reverse direction passes its inputs in its
    own reading order.
    """
    T, B, _ = acts.shape
    H = Wh.shape[0]
    cells = np.empty((T, B, H), dtype=acts.dtype)
    h = c = np.zeros((B, H), dtype=acts.dtype)
    for t in range(T):
        z = acts[t]
        z += h @ Wh
        g = np.tanh(z[:, 2 * H:3 * H])
        z[...] = _sigmoid(z)
        z[:, 2 * H:3 * H] = g
        c = z[:, H:2 * H] * c + z[:, :H] * g
        h = z[:, 3 * H:] * np.tanh(c)
        cells[t] = c
        hs[t] = h
    return cells


def _lstm_backward(grad_h, Wh, hs, acts, cells):
    """BPTT of one ``_lstm_forward`` direction in one loop, then one GEMM
    for dWh: the (T, batch, 4H) pre-activation gradient and dWh.

    Step t reads only its own gates, then writes its gradient over them in
    ``acts``: a graph runs each rule once and frees itself, so none is reread.
    """
    T, B, _ = acts.shape
    H = Wh.shape[0]
    dz = acts
    Wh_T = Wh.T
    zero = np.zeros((B, H), dtype=acts.dtype)
    dh_next = dc_next = zero
    for t in reversed(range(T)):
        i, f, g, o = (acts[t, :, k * H:(k + 1) * H] for k in range(4))
        c_prev = cells[t - 1] if t else zero
        tanh_c = np.tanh(cells[t])
        dh = grad_h[t] + dh_next
        dc = dh * (o * (1.0 - tanh_c * tanh_c)) + dc_next
        dg = i * (1.0 - g * g)
        np.multiply(g * i * (1.0 - i), dc, out=i)
        np.multiply(dg, dc, out=g)
        dc_next = dc * f
        np.multiply(c_prev * f * (1.0 - f), dc, out=f)
        np.multiply(tanh_c * o * (1.0 - o), dh, out=o)
        dh_next = dz[t] @ Wh_T
    # each step after the first starts from the state its predecessor left
    return dz, hs[:-1].reshape(-1, H).T @ dz[1:].reshape(-1, 4 * H)


def bilstm_sequence(ids, table, fwd_weights, bwd_weights, lengths=None):
    """Both directions of a bidirectional LSTM over the rows of a (V, E)
    ``table`` that a (T, batch) integer array ``ids`` picks.

    ``fwd_weights`` and ``bwd_weights`` are (Wx, Wh, b) triples, of shapes
    (E, 4H), (H, 4H) and (4H,). Returns a (2, T, batch, H) tensor: the
    forward states, then the reverse states. ``lengths`` holds each row's
    length n, 1 <= n <= T; None means n = T for every row. The reverse
    direction is the same ``_lstm_forward`` run over the ids gathered by
    one per-row time index, ``rev[t, b] = n_b - 1 - t`` for t < n_b and t
    after: state t has read positions t..n-1, and the reverse states at
    positions >= n are zero. The index is its own inverse, so the same
    gather maps the ids in, the states out and their gradient back. Each
    direction projects each distinct id once, not every position, and
    takes its input gradients from one sum per id of its pre-activation
    gradient. The directions share only the input, so they are the two
    ``_halves`` of the op, in forward and in backward. The table gradient
    is the forward direction's plus the reverse one's, in that order
    either way.
    """
    table = as_tensor(table)
    weights = [tuple(as_tensor(w) for w in ws) for ws in (fwd_weights, bwd_weights)]
    for ws in weights:
        _check_lstm(table.shape[1], *ws, "bilstm_sequence")
    H = weights[0][1].shape[0]
    if weights[1][1].shape[0] != H:
        raise ValueError(f"bilstm_sequence: hidden sizes {H} and "
                         f"{weights[1][1].shape[0]} differ")
    ids = checked_ids(ids, table, "bilstm_sequence")
    if ids.ndim != 2:
        raise ValueError(f"bilstm_sequence: ids of shape {ids.shape} are not "
                         f"(T, batch)")
    T, B = ids.shape
    past = _past_lengths(lengths, T, B, "bilstm_sequence")
    t, n = np.arange(T)[:, None], T - past.sum(axis=0)
    # the reverse reading order, and the positions past n, as flat t * B + b
    rev = (np.where(past, t, n - 1 - t) * B + np.arange(B)).reshape(-1)
    past = np.flatnonzero(past)
    # both directions in reading order; both pick the same ``present`` rows
    chars = [_Lookup(ids, table), _Lookup(ids.reshape(-1)[rev], table)]
    hs = np.empty((2, T, B, H), dtype=table.data.dtype)
    # each direction's states in its own reading order
    reading = [hs[0], np.empty_like(hs[1])]
    raw = [[w.data for w in ws] for ws in weights]
    work = T * B * 4 * H * H  # one direction's recurrent products

    def flip(x, out=None):
        """A (T, batch, H) array in the other direction's reading order,
        zero at the positions past each row's length."""
        # rev is in range, so "clip" only spares ``take`` a buffered copy
        out = np.take(x.reshape(-1, H), rev, axis=0, out=out, mode="clip")
        out[past] = 0.0
        return out.reshape(T, B, H)

    def forward(d):
        Wx, Wh, b = raw[d]
        acts = (chars[d].rows @ Wx + b)[chars[d].inv].reshape(T, B, 4 * H)
        return acts, _lstm_forward(acts, Wh, reading[d])

    saved = _halves(forward, work)
    flip(reading.pop(), out=hs[1].reshape(-1, H))

    def backward(g):
        # a state past its row's length reads as zero, which gets no gradient
        grads, states = [g[0], flip(g[1])], [hs[0], flip(hs[1])]

        def direction(d):
            Wx, Wh, _ = raw[d]
            dz, dWh = _lstm_backward(grads[d], Wh, states[d], *saved[d])
            per_id = chars[d].sum_by_id(dz.reshape(T * B, 4 * H))
            return (per_id @ Wx.T, chars[d].rows.T @ per_id, dWh,
                    per_id.sum(axis=0))

        (d_rows_f, *dw_f), (d_rows_b, *dw_b) = _halves(direction, work)
        return (chars[0].scatter(d_rows_f + d_rows_b), *dw_f, *dw_b)

    return _make(hs, (table, *weights[0], *weights[1]), backward)


def context_projection(ids, table, hs, W, b, lengths=None):
    """ReLU of [h_fwd(t-1) ; table[ids_t] ; h_bwd(t+1)] @ W + b at every t.

    ``ids`` is the (T, batch) integer array that picks rows of the (V, E)
    ``table``, and ``hs`` the (2, T, batch, H) states of
    ``bilstm_sequence``; the contexts beyond either end are zero. Returns
    (T, batch, O), zero at the positions at or after each row's length in
    ``lengths``; None means no such position. Each row block of the
    (2H+E, O) ``W`` multiplies its input unshifted: the table block each
    distinct id once, and the context blocks the states, added one position
    apart, so no shifted or concatenated copy is made. The two context products, forward states by
    their block and reverse states by theirs, are the two ``_halves`` of
    the op, in forward and in backward: each writes its own rows of the
    state gradient and its own block of the weight gradient.
    """
    table, hs, W, b = (as_tensor(t) for t in (table, hs, W, b))
    ids = checked_ids(ids, table, "context_projection")
    E = table.shape[1]
    H = hs.shape[-1]
    O = W.shape[1]
    if (ids.ndim != 2 or hs.shape != (2, *ids.shape, H)
            or W.shape[0] != 2 * H + E or b.shape != (O,)):
        raise ValueError(f"context_projection: ids {ids.shape}, table "
                         f"{table.shape} and states {hs.shape} do not fit "
                         f"weights {W.shape}, {b.shape}")
    T, B = ids.shape
    past = _past_lengths(lengths, T, B, "context_projection")
    chars = _Lookup(ids, table)
    W_x = W.data[H:H + E]
    n = T * B
    # position r's left context is forward state r - B, its right context
    # reverse state r + B; both are rows of C-order views
    states = [hs.data[0].reshape(n, H)[:-B], hs.data[1].reshape(n, H)[B:]]
    fed = [slice(B, n), slice(0, n - B)]  # the positions each direction feeds
    blocks = [W.data[:H], W.data[H + E:]]  # the rows each direction multiplies
    work = n * 2 * H * O
    out = (chars.rows @ W_x + b.data)[chars.inv]
    left, right = _halves(lambda d: states[d] @ blocks[d], work)
    out[fed[0]] += left
    out[fed[1]] += right
    np.maximum(out, 0, out=out)
    out[past.reshape(n)] = 0.0  # so no gradient reaches them either

    def backward(g):
        g2d = g.reshape(n, O) * (out > 0)
        dhs = np.zeros(hs.shape, dtype=hs.data.dtype)  # C order: rows are views
        d_states = [dhs[0].reshape(n, H)[:-B], dhs[1].reshape(n, H)[B:]]

        def direction(d):
            np.matmul(g2d[fed[d]], blocks[d].T, out=d_states[d])
            return states[d].T @ g2d[fed[d]]

        dW_fwd, dW_bwd = _halves(direction, work)
        per_id = chars.sum_by_id(g2d)
        dW = np.concatenate([dW_fwd, chars.rows.T @ per_id, dW_bwd])
        return chars.scatter(per_id @ W_x.T), dhs, dW, per_id.sum(axis=0)

    return _make(out.reshape(T, B, O), (table, hs, W, b), backward)


def attention_pool(spans, Wv, bv, v, lengths=None):
    """Attention-weighted mean over the S spans of a (S, batch, O) tensor.

    Span s of example b scores tanh(spans[s, b] @ Wv + bv) @ v, the scores
    of each example are softmaxed over its spans, and the result is the
    (batch, O) weighted mean. A span that starts at or after the row's
    text length in ``lengths`` scores -inf, so its weight is exactly 0;
    None means every span is scored. Also returns the (batch, S) weights,
    as a Tensor outside the graph: no loss reads them. The softmax is per
    example, so both passes run in two ``_halves`` of the batch.
    """
    spans, Wv, bv, v = (as_tensor(t) for t in (spans, Wv, bv, v))
    S, B, O = spans.shape
    A = bv.shape[0]
    if Wv.shape != (O, A) or v.shape != (A, 1):
        raise ValueError(f"attention_pool: spans {spans.shape} do not fit "
                         f"weights {Wv.shape}, {bv.shape}, {v.shape}")
    past = _past_lengths(lengths, S, B, "attention_pool", limit=np.inf)
    w = np.empty((S, B), dtype=spans.data.dtype)
    pooled = np.empty((B, O), dtype=spans.data.dtype)
    work = S * B * O * A
    # reshapes take their widths from views: a batch of one has an empty half

    def forward(h):
        cols = _half(h, B)
        hidden = np.tanh(spans.data[:, cols].reshape(-1, O) @ Wv.data + bv.data)
        scores = (hidden @ v.data).reshape(w[:, cols].shape)
        scores[past[:, cols]] = -np.inf
        e = np.exp(scores - scores.max(axis=0))
        np.divide(e, e.sum(axis=0), out=w[:, cols])
        (w[:, cols, None] * spans.data[:, cols]).sum(axis=0, out=pooled[cols])
        return hidden

    halves = _halves(forward, work)

    def backward(g):
        g_spans = np.empty_like(spans.data)

        def half(h):
            cols = _half(h, B)
            x, w_h, g_h, hidden = spans.data[:, cols], w[:, cols], g[cols], halves[h]
            g_w = (x * g_h).sum(axis=2)
            g_scores = ((g_w - (g_w * w_h).sum(axis=0)) * w_h).reshape(-1, 1)
            g_pre = 1.0 - hidden * hidden
            g_pre *= g_scores @ v.data.T
            out = g_spans[:, cols]
            np.multiply(w_h[:, :, None], g_h, out=out)
            out += (g_pre @ Wv.data.T).reshape(out.shape)
            return (x.reshape(-1, O).T @ g_pre, g_pre.sum(axis=0),
                    hidden.T @ g_scores)

        first, second = _halves(half, work)
        return (g_spans, *(p0 + p1 for p0, p1 in zip(first, second)))

    return _make(pooled, (spans, Wv, bv, v), backward), Tensor(w.T)


def embedding(ids, table):
    """Look up rows of ``table`` for an integer id array."""
    table = as_tensor(table)
    ids = checked_ids(ids, table)

    def backward(g):
        lookup = _Lookup(ids, table)
        return (lookup.scatter(lookup.sum_by_id(g.reshape(-1, table.shape[1]))),)

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
