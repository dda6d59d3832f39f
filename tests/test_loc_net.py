import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet.loc_net import LocConvNetwork, TimezoneEmbedding

from conftest import finite_difference_check, gradients
from oracles import (amax, batch_major_loc_forward, chained_loc_forward, mul,
                     reshape, tsum)


def make_net(vocab=7, emb=3, span=2, out=4, seed=0):
    return LocConvNetwork(np.random.default_rng(seed), vocab, emb, span, out)


def test_span_count_default_geometry():
    # T=20, Q=3 pools over 18 spans; check via the pre-pool activations
    net = make_net(span=3)
    ids = np.random.default_rng(1).integers(0, 7, size=(2, 20))
    out = net.forward(ids)
    assert out.shape == (2, net.out_size)


def test_zero_weights_give_zero_feature():
    net = make_net()
    net.params["loc.Wg"].data[...] = 0.0
    net.params["loc.bg"].data[...] = 0.0
    out = net.forward(np.array([[1, 2, 3, 4]]))
    np.testing.assert_allclose(out.data, 0.0)


def test_sequence_shorter_than_span_rejected():
    net = make_net(span=5)
    with pytest.raises(ValueError, match="span"):
        net.forward(np.array([[1, 2, 3]]))


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((4, 2, 3), (7, 5), (5,)),   # W rows are not a multiple of E
    ((4, 2, 3), (6, 5), (4,)),   # bias width is not O
    ((4, 3), (6, 5), (5,)),      # input is not (T, batch, E)
])
def test_span_conv_max_rejects_shapes_that_do_not_fit(x_shape, w_shape, b_shape):
    with pytest.raises(ValueError, match="span_conv_max: input"):
        ad.span_conv_max(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))


def test_pooling_is_max_over_spans():
    # independent recomputation of the conv + max from raw parameters
    net = make_net(seed=3)
    ids = np.random.default_rng(2).integers(0, 7, size=(1, 6))
    emb = net.params["loc.emb"].data[ids[0]]
    W = net.params["loc.Wg"].data
    b = net.params["loc.bg"].data
    spans = []
    for t in range(6 - net.span + 1):
        window = emb[t:t + net.span].reshape(-1)
        spans.append(np.maximum(0.0, window @ W + b))
    expected = np.max(spans, axis=0)
    np.testing.assert_allclose(net.forward(ids).data[0], expected, atol=1e-12)


def test_max_is_order_free_across_spans():
    rng = np.random.default_rng(4)
    acts = ad.Tensor(rng.standard_normal((5, 1, 3)))
    pooled = ad.window_max(acts, 5)
    perm = rng.permutation(5)
    shuffled = ad.window_max(ad.Tensor(acts.data[perm]), 5)
    np.testing.assert_allclose(pooled.data, shuffled.data)


@pytest.mark.parametrize("ties", [False, True])
def test_full_window_max_equals_amax_bit_for_bit(ties):
    # a window as long as the sequence, as the text network pools when P = T:
    # one window over all rows of a (T, batch, O) array
    rng = np.random.default_rng(8)
    shape = (6, 4, 5)
    values = (rng.integers(0, 2, size=shape).astype(float) if ties
              else rng.standard_normal(shape))
    upstream = rng.standard_normal((4, 5))
    acts = ad.Tensor(values, requires_grad=True)
    pooled = reshape(ad.window_max(acts, 6), (4, 5))
    tsum(mul(pooled, upstream)).backward()
    batch_major = ad.Tensor(values.transpose(1, 0, 2).copy(), requires_grad=True)
    oracle = amax(batch_major, axis=1)
    tsum(mul(oracle, upstream)).backward()
    np.testing.assert_array_equal(pooled.data, oracle.data)
    np.testing.assert_array_equal(acts.grad, batch_major.grad.transpose(1, 0, 2))


# (T, span, batch, ids, bias); random ids where ids is None. Pad ids (0)
# make whole windows equal, so spans tie, and a large negative bias makes
# every pre-activation negative.
LOC_CASES = {
    "5-2": (5, 2, 3, None, 0.0),
    "4-4": (4, 4, 3, None, 0.0),
    "20-3": (20, 3, 3, None, 0.0),
    "padded-ties": (6, 2, 3, [[4, 2, 0, 0, 0, 0], [0] * 6, [5, 0, 0, 0, 0, 5]],
                    0.0),
    "all-negative": (5, 2, 3, None, -100.0),
    "T=Q": (3, 3, 2, None, 0.0),
    "batch-1": (7, 3, 1, None, 0.0),
}


@pytest.mark.parametrize("case", list(LOC_CASES))
def test_forward_matches_batch_major_amax_path(case):
    T, span, batch, ids, bias = LOC_CASES[case]
    net = make_net(span=span, seed=T)
    net.params["loc.bg"].data[...] = bias
    ids = (np.random.default_rng(T).integers(0, 7, size=(batch, T))
           if ids is None else np.asarray(ids))
    params = list(net.params.values())

    def run(forward):
        out = forward(ids)
        return [out.data, *gradients(params, tsum(ad.tanh(out)))]

    got = run(net.forward)
    assert got[0].shape == (batch, net.out_size)
    # the chain the op replaced, then the same chain batch-major with amax
    for oracle in (chained_loc_forward, batch_major_loc_forward):
        for a, b in zip(got, run(lambda i: oracle(net, i))):
            np.testing.assert_allclose(a, b, rtol=1e-10,
                                       atol=1e-10 * np.abs(b).max())
    if bias < 0:
        for a in got:
            np.testing.assert_array_equal(a, 0.0)


def test_monotone_in_span_activations():
    rng = np.random.default_rng(5)
    acts = rng.standard_normal((1, 4, 3))
    base = np.max(acts, axis=1)
    acts[0, 2, 1] += 5.0
    bumped = np.max(acts, axis=1)
    assert (bumped >= base).all()


def test_gradient_check():
    net = make_net(seed=6)
    ids = np.random.default_rng(7).integers(0, 7, size=(2, 5))
    finite_difference_check(
        net.params, lambda: tsum(ad.tanh(net.forward(ids))), max_coords=4)


class TestTimezoneEmbedding:
    def test_lookup_returns_table_row(self):
        net = TimezoneEmbedding(np.random.default_rng(0), 5, 3)
        out = net.forward(np.array([2]))
        np.testing.assert_allclose(out.data[0], net.params["tz.emb"].data[2])

    def test_same_id_same_vector(self):
        net = TimezoneEmbedding(np.random.default_rng(0), 5, 3)
        out = net.forward(np.array([4, 4]))
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_out_of_range_rejected(self):
        net = TimezoneEmbedding(np.random.default_rng(0), 5, 3)
        with pytest.raises(ValueError, match="out of range"):
            net.forward(np.array([5]))

    def test_gradient_touches_one_row(self):
        net = TimezoneEmbedding(np.random.default_rng(0), 5, 3)
        table = net.params["tz.emb"]
        tsum(net.forward(np.array([1]))).backward()
        touched = np.nonzero(np.abs(table.grad).sum(axis=1))[0]
        np.testing.assert_array_equal(touched, [1])

    def test_paper_embedding_width(self):
        from geotweet.model import ModelConfig
        assert ModelConfig().timezone_emb_size == 50
