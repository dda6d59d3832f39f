import math
import weakref

import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet.autodiff import Tensor
from geotweet.optim import Adam

from conftest import finite_difference_check
from oracles import (absolute, amax, div, exp, maximum, maximum_list, mul,
                     probs_cross_entropy, relu, reshape, sigmoid, softmax, sub,
                     take, tmean, transpose, tsum)


def make(shape, rng, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = softmax(Tensor(rng.standard_normal((7, 9)) * 5))
    assert (out.data >= 0).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_elementwise_max():
    out = maximum_list([Tensor([1.0, 5.0]), Tensor([3.0, 2.0])])
    np.testing.assert_allclose(out.data, [3.0, 5.0])


def test_tanh_at_origin():
    x = Tensor([0.0], requires_grad=True)
    y = tsum(ad.tanh(x))
    y.backward()
    assert y.data == 0.0
    np.testing.assert_allclose(x.grad, [1.0])


def test_graph_runs_in_the_dtype_of_its_leaves():
    assert Tensor([1, 2]).data.dtype == Tensor(True).data.dtype == np.float64
    mu, sigma = (Tensor(np.full(3, v, np.float32), requires_grad=True)
                 for v in (0.5, 0.25))
    out = ad.tanh(ad.rbf(np.array([0.0, 1.0]), mu, sigma))  # float64 data
    assert out.data.dtype == np.float32
    tsum(out).backward()
    assert mu.grad.dtype == sigma.grad.dtype == np.float32


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    # matmul takes 2-D operands only
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(4, 5\)"):
        ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        mul(x, 2.0).backward()


def test_backward_linear():
    x = Tensor(np.zeros(3), requires_grad=True)
    tsum(x).backward()
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_power_rule():
    x = Tensor([2.0], requires_grad=True)
    tsum(mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_backward_accumulates_until_zeroed():
    x = Tensor([3.0], requires_grad=True)
    tsum(mul(x, x)).backward()
    once = x.grad.copy()
    tsum(mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, 2 * once)
    x.zero_grad()
    assert x.grad is None


def test_backward_frees_what_rules_saved():
    x = Tensor(np.ones(3), requires_grad=True)
    factor = np.arange(3.0)
    loss = tsum(mul(x, factor))  # mul's rule keeps factor for x's grad
    saved = weakref.ref(factor)
    del factor
    assert saved() is not None
    loss.backward()
    assert saved() is None
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 2.0])


def test_second_backward_of_a_freed_graph_raises():
    x = Tensor([3.0], requires_grad=True)
    y = mul(x, x)
    loss = tsum(y)
    loss.backward()
    with pytest.raises(ValueError, match="freed"):
        loss.backward()
    # a new graph through a freed node fails the same way
    with pytest.raises(ValueError, match="freed"):
        tsum(mul(y, 2.0)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_reused_node_gets_summed_gradient():
    x = Tensor([1.5], requires_grad=True)
    y = mul(x, x)
    tsum(ad.add(y, y)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_node_read_by_three_ops_gets_the_sum_of_their_gradients():
    x = Tensor([1.5, -2.0], requires_grad=True)
    y = mul(x, 3.0)
    tsum(ad.add(ad.add(mul(y, 2.0), mul(y, y)), ad.tanh(y))).backward()
    t = np.tanh(3.0 * x.data)
    np.testing.assert_allclose(x.grad, 3.0 * (2.0 + 2 * 3.0 * x.data + 1.0 - t * t))


class TestGradChecks:
    """Central finite differences for every op."""

    def check(self, build, n_params, shapes, seed=0, scale=1.0):
        rng = np.random.default_rng(seed)
        params = {f"p{i}": make(shapes[i], rng, scale) for i in range(n_params)}
        finite_difference_check(params, lambda: build(*params.values()))

    def test_matmul(self):
        self.check(lambda a, b: tsum(ad.matmul(a, b)), 2, [(3, 4), (4, 2)])

    def test_add_broadcast(self):
        self.check(lambda a, b: tsum(ad.tanh(ad.add(a, b))), 2, [(5, 3), (3,)])

    def test_sub_mul_div(self):
        self.check(lambda a, b: tsum(div(mul(sub(a, b), a),
                                         ad.add(mul(b, b), 2.0))),
                   2, [(4, 3), (3,)])

    def test_concat(self):
        self.check(lambda a, b: tsum(ad.tanh(ad.concat([a, b], axis=1))),
                   2, [(2, 3), (2, 4)])

    def test_reshape_transpose_take(self):
        self.check(
            lambda a: tsum(ad.tanh(
                take(transpose(reshape(a, (3, 4)), (1, 0)),
                     (slice(1, 3), slice(None, 2))))),
            1, [(12,)])

    def test_tanh_sigmoid_relu_exp_abs(self):
        self.check(lambda a: tsum(ad.tanh(sigmoid(exp(mul(a, 0.3))))),
                   1, [(4, 4)])
        # keep relu/abs away from their kinks
        rng = np.random.default_rng(3)
        x = Tensor(np.sign(rng.standard_normal((5, 5))) *
                   (0.5 + rng.random((5, 5))), requires_grad=True)
        finite_difference_check(
            {"x": x}, lambda: tsum(ad.add(relu(x), absolute(x))))

    def test_softmax(self):
        self.check(lambda a: tsum(mul(softmax(a), softmax(a))),
                   1, [(3, 5)])

    def test_maximum_and_amax(self):
        self.check(lambda a, b: tsum(maximum(a, b)), 2, [(4, 3), (4, 3)])
        self.check(lambda a: tsum(amax(a, axis=1)), 1, [(3, 6)])

    def test_sum_mean_axes(self):
        self.check(lambda a: tsum(ad.tanh(tmean(a, axis=0))), 1, [(4, 3)])
        self.check(lambda a: tmean(mul(tsum(a, axis=1), 0.5)),
                   1, [(4, 3)])

    def test_embedding(self):
        rng = np.random.default_rng(5)
        table = make((7, 3), rng)
        ids = rng.integers(0, 7, size=(2, 4))
        finite_difference_check(
            {"table": table},
            lambda: tsum(ad.tanh(ad.embedding(ids, table))))

    def test_cross_entropy(self):
        rng = np.random.default_rng(6)
        logits = make((4, 5), rng)
        labels = rng.integers(0, 5, size=4)
        finite_difference_check(
            {"logits": logits},
            lambda: ad.cross_entropy(logits, labels))


def test_embedding_id_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ad.embedding(np.array([5]), Tensor(np.zeros((3, 2))))


def test_noise_gradient_passthrough():
    x = Tensor(np.ones(4), requires_grad=True)
    rng = np.random.default_rng(0)
    tsum(ad.gaussian_noise(x, 0.5, rng)).backward()
    np.testing.assert_allclose(x.grad, np.ones(4))


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(42)
    x = Tensor(np.ones(100_000))
    out = ad.dropout(x, 0.7, rng, train=True)
    assert abs(out.data.mean() - 1.0) < 0.02


@pytest.mark.parametrize("keep_prob", [0.0, -0.5, math.nan])
def test_dropout_keep_prob_out_of_range_rejected(keep_prob):
    with pytest.raises(ValueError, match=r"dropout: keep_prob must be in \(0,1\]"):
        ad.dropout(Tensor(np.ones(3)), keep_prob, np.random.default_rng(0), train=True)


def test_dropout_identity_at_eval():
    x = Tensor(np.ones(10))
    out = ad.dropout(x, 0.5, np.random.default_rng(0), train=False)
    assert out is x


def test_cross_entropy_uniform():
    logits = Tensor(np.full((1, 4), 3.0))
    loss = ad.cross_entropy(logits, [2])
    assert abs(float(loss.data) - math.log(4)) < 1e-12


def test_cross_entropy_one_hot_correct():
    logits = Tensor([[0.0, 1e4, 0.0]])
    assert float(ad.cross_entropy(logits, [1]).data) == 0.0


def test_cross_entropy_batch_mean():
    logits = Tensor([[0.0, 0.0], [-2.0, -2.0]])
    loss = ad.cross_entropy(logits, [0, 1])
    assert abs(float(loss.data) - math.log(2)) < 1e-12


def test_cross_entropy_rejects_out_of_range_label():
    for label in (-1, 3):
        with pytest.raises(ValueError, match="label out of range for 3 classes"):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), [0, label])


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_matches_softmax_then_log(seed):
    rng = np.random.default_rng(seed)
    logits = make((6, 5), rng, scale=3.0)
    labels = rng.integers(0, 5, size=6)
    fused = ad.cross_entropy(logits, labels)
    chain = probs_cross_entropy(softmax(logits), labels)
    np.testing.assert_allclose(fused.data, chain.data, rtol=1e-10)
    fused.backward()
    got, logits.grad = logits.grad, None
    chain.backward()
    np.testing.assert_allclose(got, logits.grad, rtol=1e-10, atol=1e-12)


def test_cross_entropy_is_exact_for_a_large_logit_gap():
    logits = Tensor([[0.0, 1e4], [1e4, 0.0]], requires_grad=True)
    labels = [0, 0]
    # the softmax of the first row rounds to [0, 1]; a floor on that
    # probability capped its loss at -log(1e-12)
    capped = probs_cross_entropy(softmax(logits), labels)
    assert float(capped.data) == pytest.approx(-math.log(1e-12) / 2)
    loss = ad.cross_entropy(logits, labels)
    assert float(loss.data) == 5e3
    loss.backward()
    np.testing.assert_array_equal(logits.grad, [[-0.5, 0.5], [0.0, 0.0]])


def test_cross_entropy_of_non_finite_logits_is_non_finite():
    with np.errstate(invalid="ignore"):
        for row in ([0.0, np.inf], [0.0, np.nan], [-np.inf, 0.0]):
            loss = ad.cross_entropy(Tensor([row, [1.0, 2.0]]), [0, 1])
            assert not np.isfinite(loss.data), row
    # a class the logits rule out entirely costs nothing
    loss = ad.cross_entropy(Tensor([[0.0, -np.inf]]), [0])
    assert float(loss.data) == 0.0


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([0.5])
        opt = Adam({"p": p}, learning_rate=0.001)
        opt.step()
        # first bias-corrected step moves by ~lr regardless of grad scale
        assert p.data[0] == pytest.approx(-0.001, rel=1e-4)
        assert opt.step_count == 1
        assert p.grad is None

    def test_zero_gradient_leaves_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.0])
        Adam({"p": p}).step()
        assert p.data[0] == 1.0

    def test_descent_on_quadratic(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.1)
        values = []
        for _ in range(3):
            loss = tsum(mul(p, p))
            values.append(float(loss.data))
            loss.backward()
            opt.step()
        assert values[1] < values[0] and float((p.data * p.data).sum()) < values[1]

    def test_snapshot_restore_roundtrip(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.1)
        loss = tsum(mul(p, p))
        loss.backward()
        opt.step()
        snap = opt.snapshot()
        before = p.data.copy()
        loss = tsum(mul(p, p))
        loss.backward()
        opt.step()
        opt.restore(snap)
        p.data[...] = before
        assert opt.step_count == 1


@pytest.mark.parametrize("rows", [2, 256, 257, 65536, 65537])
def test_sum_by_id_orders_positions_as_an_int64_stable_sort(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    ids = rng.integers(0, rows, size=(40, 128))
    ids[0, :3] = rows - 1, 0, rows - 1  # the largest id, and ties
    lookup = ad._Lookup(ids, Tensor(np.zeros((rows, 1))))
    argsort, sorted_dtypes, orders = np.argsort, [], []

    def recorded(a, *args, **kwargs):
        sorted_dtypes.append(a.dtype)
        orders.append(argsort(a, *args, **kwargs))
        return orders[-1]
    monkeypatch.setattr(np, "argsort", recorded)
    g = rng.standard_normal((ids.size, 2))
    summed = lookup.sum_by_id(g)
    monkeypatch.undo()
    (order,) = orders
    np.testing.assert_array_equal(
        order, np.argsort(ids.reshape(-1).astype(np.int64), kind="stable"))
    assert sorted_dtypes[0].itemsize <= (1 if rows <= 256 else 2 if rows <= 65536 else 4)
    expected = np.zeros((rows, 2))
    np.add.at(expected, ids.reshape(-1), g)
    np.testing.assert_allclose(summed, expected[lookup.present], rtol=1e-12, atol=1e-12)
