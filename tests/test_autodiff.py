import math
import weakref

import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet.autodiff import Tensor
from geotweet.optim import Adam

from conftest import finite_difference_check


def make(shape, rng, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ad.softmax(Tensor(rng.standard_normal((7, 9)) * 5))
    assert (out.data >= 0).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_elementwise_max():
    out = ad.maximum_list([Tensor([1.0, 5.0]), Tensor([3.0, 2.0])])
    np.testing.assert_allclose(out.data, [3.0, 5.0])


def test_tanh_at_origin():
    x = Tensor([0.0], requires_grad=True)
    y = ad.tsum(ad.tanh(x))
    y.backward()
    assert y.data == 0.0
    np.testing.assert_allclose(x.grad, [1.0])


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * 2.0).backward()


def test_backward_linear():
    x = Tensor(np.zeros(3), requires_grad=True)
    ad.tsum(x).backward()
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_power_rule():
    x = Tensor([2.0], requires_grad=True)
    ad.tsum(x * x).backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_backward_accumulates_until_zeroed():
    x = Tensor([3.0], requires_grad=True)
    ad.tsum(x * x).backward()
    once = x.grad.copy()
    ad.tsum(x * x).backward()
    np.testing.assert_allclose(x.grad, 2 * once)
    x.zero_grad()
    assert x.grad is None


def test_backward_frees_what_rules_saved():
    x = Tensor(np.ones(3), requires_grad=True)
    factor = np.arange(3.0)
    loss = ad.tsum(ad.mul(x, factor))  # mul's rule keeps factor for x's grad
    saved = weakref.ref(factor)
    del factor
    assert saved() is not None
    loss.backward()
    assert saved() is None
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 2.0])


def test_second_backward_of_a_freed_graph_raises():
    x = Tensor([3.0], requires_grad=True)
    y = x * x
    loss = ad.tsum(y)
    loss.backward()
    with pytest.raises(ValueError, match="freed"):
        loss.backward()
    # a new graph through a freed node fails the same way
    with pytest.raises(ValueError, match="freed"):
        ad.tsum(y * 2.0).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_reused_node_gets_summed_gradient():
    x = Tensor([1.5], requires_grad=True)
    y = x * x
    ad.tsum(ad.add(y, y)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


class TestGradChecks:
    """Central finite differences for every op."""

    def check(self, build, n_params, shapes, seed=0, scale=1.0):
        rng = np.random.default_rng(seed)
        params = {f"p{i}": make(shapes[i], rng, scale) for i in range(n_params)}
        finite_difference_check(params, lambda: build(*params.values()))

    def test_matmul(self):
        self.check(lambda a, b: ad.tsum(ad.matmul(a, b)), 2, [(3, 4), (4, 2)])

    def test_add_broadcast(self):
        self.check(lambda a, b: ad.tsum(ad.tanh(ad.add(a, b))), 2, [(5, 3), (3,)])

    def test_sub_mul_div(self):
        self.check(lambda a, b: ad.tsum(ad.div(ad.mul(ad.sub(a, b), a),
                                               ad.add(ad.mul(b, b), 2.0))),
                   2, [(4, 3), (3,)])

    def test_concat(self):
        self.check(lambda a, b: ad.tsum(ad.tanh(ad.concat([a, b], axis=1))),
                   2, [(2, 3), (2, 4)])

    def test_reshape_transpose_take(self):
        self.check(
            lambda a: ad.tsum(ad.tanh(
                ad.transpose(ad.reshape(a, (3, 4)), (1, 0))[1:3, :2])),
            1, [(12,)])

    def test_tanh_sigmoid_relu_exp_abs(self):
        self.check(lambda a: ad.tsum(ad.tanh(ad.sigmoid(ad.exp(a * 0.3)))),
                   1, [(4, 4)])
        # keep relu/abs away from their kinks
        rng = np.random.default_rng(3)
        x = Tensor(np.sign(rng.standard_normal((5, 5))) *
                   (0.5 + rng.random((5, 5))), requires_grad=True)
        finite_difference_check(
            {"x": x}, lambda: ad.tsum(ad.add(ad.relu(x), ad.absolute(x))))

    def test_softmax(self):
        self.check(lambda a: ad.tsum(ad.mul(ad.softmax(a), ad.softmax(a))),
                   1, [(3, 5)])

    def test_maximum_and_amax(self):
        self.check(lambda a, b: ad.tsum(ad.maximum(a, b)), 2, [(4, 3), (4, 3)])
        self.check(lambda a: ad.tsum(ad.amax(a, axis=1)), 1, [(3, 6)])

    def test_sum_mean_axes(self):
        self.check(lambda a: ad.tsum(ad.tanh(ad.tmean(a, axis=0))), 1, [(4, 3)])
        self.check(lambda a: ad.tmean(ad.mul(ad.tsum(a, axis=1), 0.5)),
                   1, [(4, 3)])

    def test_embedding(self):
        rng = np.random.default_rng(5)
        table = make((7, 3), rng)
        ids = rng.integers(0, 7, size=(2, 4))
        finite_difference_check(
            {"table": table},
            lambda: ad.tsum(ad.tanh(ad.embedding(ids, table))))

    def test_cross_entropy(self):
        rng = np.random.default_rng(6)
        logits = make((4, 5), rng)
        labels = rng.integers(0, 5, size=4)
        finite_difference_check(
            {"logits": logits},
            lambda: ad.cross_entropy(ad.softmax(logits), labels))


def test_embedding_id_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ad.embedding(np.array([5]), Tensor(np.zeros((3, 2))))


def test_noise_gradient_passthrough():
    x = Tensor(np.ones(4), requires_grad=True)
    rng = np.random.default_rng(0)
    ad.tsum(ad.gaussian_noise(x, 0.5, rng)).backward()
    np.testing.assert_allclose(x.grad, np.ones(4))


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(42)
    x = Tensor(np.ones(100_000))
    out = ad.dropout(x, 0.7, rng, train=True)
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_identity_at_eval():
    x = Tensor(np.ones(10))
    out = ad.dropout(x, 0.5, np.random.default_rng(0), train=False)
    assert out is x


def test_cross_entropy_uniform():
    probs = Tensor(np.full((1, 4), 0.25))
    loss = ad.cross_entropy(probs, [2])
    assert abs(float(loss.data) - math.log(4)) < 1e-12


def test_cross_entropy_one_hot_correct():
    probs = Tensor([[0.0, 1.0, 0.0]])
    assert float(ad.cross_entropy(probs, [1]).data) == 0.0


def test_cross_entropy_batch_mean():
    probs = Tensor([[0.5, 0.5], [0.5, 0.5]])
    loss = ad.cross_entropy(probs, [0, 1])
    assert abs(float(loss.data) - math.log(2)) < 1e-12


def test_cross_entropy_rejects_unnormalized_rows():
    with pytest.raises(ValueError, match="sum to 1"):
        ad.cross_entropy(Tensor([[0.9, 0.3]]), [0])


def test_cross_entropy_clamps_zero_probability():
    loss = ad.cross_entropy(Tensor([[1.0, 0.0]]), [1])
    assert float(loss.data) == pytest.approx(-math.log(1e-12))


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
            loss = ad.tsum(p * p)
            values.append(float(loss.data))
            loss.backward()
            opt.step()
        assert values[1] < values[0] and float((p * p).data.sum()) < values[1]

    def test_snapshot_restore_roundtrip(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.1)
        loss = ad.tsum(p * p)
        loss.backward()
        opt.step()
        snap = opt.snapshot()
        before = p.data.copy()
        loss = ad.tsum(p * p)
        loss.backward()
        opt.step()
        opt.restore(snap)
        p.data[...] = before
        assert opt.step_count == 1
