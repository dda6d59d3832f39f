"""Reference ops and compositions the tests compare the program against.

The program never calls any of these. Each one is either a small op that
only gradient checks and oracles use (``sub``, ``mul``, ``div``, ``exp``,
``absolute``, ``softmax``, ``transpose``, ``tsum``, ``tmean``, ``maximum``,
``sigmoid``, ``relu``, ``take``, ``reshape``, ``lstm_sequence``, ``amax``),
an op as the engine ran it before a rewrite (``bilstm_sequence`` and
``context_projection`` over an embedded input), the text network's
function of one row read to its length (``text_row_forward``), a
brute-force or per-item
reference for the retrieval, code-file and LSH feature code (``hamming``,
``average_precision``, ``map_from_codes``, ``map_eval``, ``save_codes``,
``raw_feature_vector``, ``raw_feature_matrix``),
or the chain of graph nodes that a fused engine op replaced, kept so that
the fused op can be checked against it.
"""

import struct

import numpy as np

from geotweet import autodiff as ad
from geotweet import hashing as H
from geotweet.autodiff import (_check_broadcast, _check_lstm, _lstm_backward,
                               _lstm_forward, _make, _sigmoid, _unbroadcast,
                               as_tensor)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)),
    )


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    return _make(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def exp(a):
    a = as_tensor(a)
    y = np.exp(a.data)
    return _make(y, (a,), lambda g: (g * y,))


def absolute(a):
    a = as_tensor(a)
    s = np.sign(a.data)
    return _make(np.abs(a.data), (a,), lambda g: (g * s,))


def softmax(a):
    """Softmax over the last axis."""
    a = as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _make(y, (a,), backward)


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


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def transpose(a, axes):
    a = as_tensor(a)
    inverse = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def tsum(a, axis=None):
    a = as_tensor(a)
    if axis is None:
        return _make(np.array(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _make(a.data.sum(axis=axis), (a,), backward)


def tmean(a, axis=None):
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
        return _make(np.array(a.data.mean()), (a,), lambda g: (np.broadcast_to(g / n, a.shape).copy(),))
    n = a.shape[axis]

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.shape).copy(),)

    return _make(a.data.mean(axis=axis), (a,), backward)


def sigmoid(a):
    a = as_tensor(a)
    y = _sigmoid(a.data)
    return _make(y, (a,), lambda g: (g * y * (1.0 - y),))


def maximum(a, b):
    """Elementwise maximum of two same-shape tensors; ties route grad to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"maximum: shapes differ {a.shape} vs {b.shape}")
    mask = a.data >= b.data
    return _make(
        np.maximum(a.data, b.data),
        (a, b),
        lambda g: (g * mask, g * ~mask),
    )


def maximum_list(tensors):
    """Elementwise maximum across a list of same-shape tensors."""
    if not tensors:
        raise ValueError("maximum_list: empty list")
    out = tensors[0]
    for t in tensors[1:]:
        out = maximum(out, t)
    return out


def amax(a, axis):
    """Max-reduce over one axis; ties route grad to the first maximum."""
    a = as_tensor(a)
    y = a.data.max(axis=axis)
    idx = a.data.argmax(axis=axis)

    def backward(g):
        out = np.zeros_like(a.data)
        key = list(np.indices(idx.shape))
        key.insert(axis if axis >= 0 else a.data.ndim + axis, idx)
        out[tuple(key)] = g
        return (out,)

    return _make(y, (a,), backward)


def _x_lstm_forward(x, Wx, Wh, b, reverse, hs):
    """One LSTM direction over an embedded (T, batch, E) input: the input
    projection of all steps is one GEMM, then the engine's recurrence, which
    runs ``reverse`` over time-reversed views."""
    if reverse:
        x, hs = x[::-1], hs[::-1]
    T, B, E = x.shape
    acts = (x.reshape(T * B, E) @ Wx + b).reshape(T, B, -1)
    return acts, _lstm_forward(acts, Wh, hs)


def _x_lstm_backward(grad_h, x, Wx, Wh, hs, acts, cells, reverse):
    """The engine's BPTT of one ``_x_lstm_forward`` direction, then one GEMM
    each for dx and dWx over the time-ordered dz: (dx, dWx, dWh, db)."""
    T, B, E = x.shape
    steps = slice(None, None, -1 if reverse else 1)
    dz, dWh = _lstm_backward(grad_h[steps], Wh, hs[steps], acts, cells)
    dz2d = dz[steps].reshape(T * B, -1)
    return ((dz2d @ Wx.T).reshape(T, B, E), x.reshape(T * B, E).T @ dz2d,
            dWh, dz2d.sum(axis=0))


def _per_direction(fn, batch, hidden):
    """[fn(0), fn(1)], one after the other."""
    return [fn(0), fn(1)]


def lstm_sequence(x, Wx, Wh, b, reverse=False):
    """One LSTM direction over a (T, batch, E) input: the (T, batch, H)
    hidden states, run by the same private loops as ``bilstm_sequence``."""
    x, Wx, Wh, b = (as_tensor(t) for t in (x, Wx, Wh, b))
    _check_lstm(x.shape[-1], Wx, Wh, b, "lstm_sequence")
    T, B, _ = x.shape
    hs = np.empty((T, B, Wh.shape[0]), dtype=x.data.dtype)
    saved = _x_lstm_forward(x.data, Wx.data, Wh.data, b.data, reverse, hs)
    return _make(hs, (x, Wx, Wh, b), lambda g: _x_lstm_backward(
        g, x.data, Wx.data, Wh.data, hs, *saved, reverse))


def bilstm_sequence(x, fwd_weights, bwd_weights):
    """``ad.bilstm_sequence`` over an embedded (T, batch, E) input ``x`` in
    place of ids and a table: one GEMM per direction projects every
    position, and the directions run one after the other."""
    x = as_tensor(x)
    weights = [tuple(as_tensor(w) for w in ws) for ws in (fwd_weights, bwd_weights)]
    for ws in weights:
        _check_lstm(x.shape[-1], *ws, "bilstm_sequence")
    T, B, _ = x.shape
    H = weights[0][1].shape[0]
    if weights[1][1].shape[0] != H:
        raise ValueError(f"bilstm_sequence: hidden sizes {H} and "
                         f"{weights[1][1].shape[0]} differ")
    hs = np.empty((2, T, B, H), dtype=x.data.dtype)
    raw = [[w.data for w in ws] for ws in weights]
    saved = _per_direction(
        lambda d: _x_lstm_forward(x.data, *raw[d], d == 1, hs[d]), B, H)

    def backward(g):
        (dx_f, *dw_f), (dx_b, *dw_b) = _per_direction(
            lambda d: _x_lstm_backward(g[d], x.data, raw[d][0], raw[d][1], hs[d],
                                       *saved[d], d == 1), B, H)
        return (dx_f + dx_b, *dw_f, *dw_b)

    return _make(hs, (x, *weights[0], *weights[1]), backward)


def context_projection(xs, hs, W, b):
    """``ad.context_projection`` before its ReLU, over an embedded
    (T, batch, E) input ``xs`` in place of ids and a table: one GEMM
    projects every position, in one pass over all positions."""
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


def chained_context_projection(xs, hs, W, b):
    """``ad.context_projection`` before its ReLU, as a chain of take,
    concat, reshape, matmul and add nodes: the halves and their shifted
    slices are copied into one (T, batch, 2H+E) array that one matmul
    projects."""
    T, batch, _ = xs.shape
    fwd, bwd = take(hs, 0), take(hs, 1)
    zero = ad.Tensor(np.zeros((1, batch, hs.shape[-1])))
    stacked = ad.concat([ad.concat([zero, take(fwd, slice(None, -1))], axis=0),
                         xs,
                         ad.concat([take(bwd, slice(1, None)), zero], axis=0)],
                        axis=2)
    flat = reshape(stacked, (T * batch, stacked.shape[-1]))
    return reshape(ad.add(ad.matmul(flat, W), b), (T, batch, W.shape[1]))


def text_row_forward(net, row_ids, n):
    """``TextNetwork.forward`` of one row of T ids read to its length n,
    from the ops over its first n characters alone: the bi-LSTM and the
    context projection over their embedding, then the windowed max over
    their projections followed by zeros up to min(T, n + P - 1)
    positions, and attention over the spans that start at a character.
    Returns the (1, O) features and the (1, T - P + 1) weights array."""
    p = net.params
    T, P = len(row_ids), net.window
    x = ad.embedding(np.reshape(row_ids[:n], (n, 1)), p["text.emb"])
    hs = bilstm_sequence(x, *([p[f"text.{d}.{w}"] for w in ("Wx", "Wh", "b")]
                              for d in ("fwd", "bwd")))
    proj = relu(context_projection(x, hs, p["text.Wg"], p["text.bg"]))
    width = min(T, n + P - 1)
    if width > n:
        proj = ad.concat([proj, ad.Tensor(np.zeros((width - n, 1, net.out_size)))])
    spans = min(n, width - P + 1)
    pooled = maximum_list([take(proj, slice(k, k + spans)) for k in range(P)])
    features, weights = chained_attention_pool(pooled, p["text.Wv"], p["text.bv"],
                                               p["text.v"])
    return features, np.pad(weights.data, ((0, 0), (0, T - P + 1 - spans)))


def chained_rbf(u, mu, sigma):
    """``ad.rbf`` as a chain of sub, mul, div and exp nodes."""
    diff = sub(ad.Tensor(np.reshape(u, (-1, 1))), mu)
    var2 = mul(mul(sigma, sigma), 2.0)
    return exp(div(mul(mul(diff, diff), -1.0), var2))


def chained_attention_pool(spans, Wv, bv, v):
    """``ad.attention_pool`` as a chain of reshape, matmul, add, tanh,
    transpose, softmax, mul and tsum nodes, batch-major in the middle."""
    S, batch, O = spans.shape
    flat = reshape(spans, (S * batch, O))
    hidden = ad.tanh(ad.add(ad.matmul(flat, Wv), bv))
    scores = reshape(ad.matmul(hidden, v), (S, batch))
    weights = softmax(transpose(scores, (1, 0)))  # (batch, S)
    weighted = mul(reshape(weights, (batch, S, 1)), transpose(spans, (1, 0, 2)))
    return tsum(weighted, axis=1), weights


def chained_extrema_penalty(r, alpha):
    """``ad.extrema_penalty`` as a chain of sub, add, mul, absolute and
    tmean nodes."""
    return mul(tmean(absolute(mul(sub(r, 1.0), ad.add(r, 1.0)))), alpha)


def probs_cross_entropy(probs, label_ids, floor=1e-12):
    """Mean negative log-probability of the labels, each probability floored
    at ``floor``: the loss on softmax outputs that ``ad.cross_entropy`` on
    logits replaced."""
    probs = as_tensor(probs)
    labels = np.asarray(label_ids)
    n = probs.shape[0]
    rows = np.arange(n)
    p = np.maximum(probs.data[rows, labels], floor)

    def backward(g):
        out = np.zeros_like(probs.data)
        out[rows, labels] = -g / (n * p)
        return (out,)

    return _make(np.array(-np.log(p).mean()), (probs,), backward)


def chained_loc_forward(net, location_ids):
    """``LocConvNetwork.forward`` as the chain of embedding, take, concat,
    reshape, matmul, add, relu and window_max nodes that
    ``ad.span_conv_max`` replaced: every window is copied, then one matmul
    projects them all."""
    p = {name.split(".")[-1]: t for name, t in net.params.items()}
    ids = np.asarray(location_ids)
    batch, T = ids.shape
    emb = ad.embedding(ids.T, p["emb"])  # (T, batch, E)
    spans = T - net.span + 1
    windows = ad.concat(
        [take(emb, slice(q, q + spans)) for q in range(net.span)], axis=2)
    flat = reshape(windows, (spans * batch, net.span * net.emb_size))
    g = relu(ad.add(ad.matmul(flat, p["Wg"]), p["bg"]))
    pooled = ad.window_max(reshape(g, (spans, batch, net.out_size)), spans)
    return reshape(pooled, (batch, net.out_size))


def batch_major_loc_forward(net, location_ids):
    """``LocConvNetwork.forward`` run batch-major and pooled with ``amax``."""
    p = {name.split(".")[-1]: t for name, t in net.params.items()}
    ids = np.asarray(location_ids)
    batch, T = ids.shape
    emb = ad.embedding(ids, p["emb"])
    spans = T - net.span + 1
    windows = ad.concat([take(emb, (slice(None), slice(q, q + spans)))
                         for q in range(net.span)], axis=2)
    flat = reshape(windows, (batch * spans, net.span * net.emb_size))
    g = relu(ad.add(ad.matmul(flat, p["Wg"]), p["bg"]))
    return amax(reshape(g, (batch, spans, net.out_size)), axis=1)


def hamming(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"code widths differ: {a.shape[-1]} vs {b.shape[-1]}")
    return int(np.count_nonzero(a != b))


def map_eval(model, dev_columns, test_columns):
    """Binarize both partitions' column tables and compute retrieval MAP."""
    dev = H.encode_code_set(model, dev_columns)
    test = H.encode_code_set(model, test_columns)
    return H.map_from_codes(test, dev)


def raw_feature_vector(row, char_vocab_size, n_timezones):
    """LSH input vector of one table row (column name -> value): scalar
    time features, one-hot timezone, and character-count bags of
    location/text."""
    tz = np.zeros(n_timezones)
    tz[row["timezone_id"]] = 1.0
    text_bag = np.bincount(
        np.asarray(row["text_ids"]), minlength=char_vocab_size).astype(np.float64)
    loc_bag = np.bincount(
        np.asarray(row["location_ids"]), minlength=char_vocab_size).astype(np.float64)
    scalars = np.array([row["tweet_time"], row["account_time"],
                        row["utc_offset"]])
    return np.concatenate([
        scalars, tz,
        loc_bag / max(1.0, loc_bag.sum()),
        text_bag / max(1.0, text_bag.sum()),
    ])


def raw_feature_matrix(columns, char_vocab_size, n_timezones):
    """``raw_feature_vector`` of each row of a column table, stacked."""
    return np.stack([
        raw_feature_vector({k: v[i] for k, v in columns.items()},
                           char_vocab_size, n_timezones)
        for i in range(len(columns["label_id"]))])


def average_precision(ranking, relevant):
    """Per-item loop over the ranking: precision at each relevant rank."""
    if not relevant:
        raise ValueError("average precision needs a non-empty relevant set")
    relevant = set(relevant)
    missing = relevant.difference(ranking)
    if missing:
        raise ValueError(f"relevant ids not in the ranking: {sorted(missing)[:5]}")
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranking, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def map_from_codes(test, dev):
    """MAP over a dict of same-label id sets, one ``retrieve`` per query."""
    by_label = {}
    for i, lab in zip(dev.ids, dev.labels):
        by_label.setdefault(int(lab), set()).add(int(i))
    aps = []
    excluded = 0
    for bits, lab in zip(test.bits, test.labels):
        relevant = by_label.get(int(lab))
        if not relevant:
            excluded += 1
            continue
        aps.append(average_precision(H.retrieve(bits, dev), relevant))
    return (float(np.mean(aps)) if aps else 0.0), excluded


def save_codes(path, codes):
    """``.codes`` writer that packs the header and each record by itself."""
    with open(path, "wb") as f:
        f.write(H.CODE_MAGIC)
        f.write(struct.pack("<IIQ", H.CODE_FORMAT_VERSION, codes.width, len(codes)))
        for bits, rid, lab in zip(codes.bits, codes.ids, codes.labels):
            f.write(struct.pack("<QQ", int(rid), int(lab)))
            f.write(np.packbits(bits).tobytes())
