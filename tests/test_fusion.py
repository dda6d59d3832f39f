import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet.autodiff import Tensor
from geotweet.fusion import FusionClassifier, extrema_loss, predict_labels

from conftest import assert_matches_oracle, finite_difference_check, gradients
from oracles import chained_extrema_penalty, softmax


def make_fusion(input_dim=6, R=4, K=3, seed=0):
    return FusionClassifier(np.random.default_rng(seed), input_dim, R, K)


class TestFuse:
    def test_eval_mode_is_plain_concatenation(self):
        fusion = make_fusion()
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0]])
        out = fusion.fuse([a, b], noise_sigma=0.5, dropout_keep=0.5,
                          train=False)
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0, 4.0]])

    def test_paper_feature_dims_sum(self):
        dims = (400, 50, 50, 50, 300, 10)
        features = [Tensor(np.zeros((2, d))) for d in dims]
        out = make_fusion(sum(dims)).fuse(features)
        assert out.shape == (2, 860)

    def test_noise_sample_std(self):
        fusion = make_fusion()
        rng = np.random.default_rng(0)
        x = Tensor(np.zeros((1, 100_000)))
        out = fusion.fuse([x], noise_sigma=0.1, train=True, rng=rng)
        assert out.data.std() == pytest.approx(0.1, rel=0.05)

    def test_noise_precedes_dropout(self):
        # dropout zeros must also kill the noise that was added before it
        fusion = make_fusion()
        rng = np.random.default_rng(1)
        x = Tensor(np.zeros((1, 50_000)))
        out = fusion.fuse([x], noise_sigma=0.5, dropout_keep=0.8, train=True,
                          rng=rng)
        dropped = out.data == 0.0
        assert dropped.mean() == pytest.approx(0.2, abs=0.02)


class TestPenultimate:
    def test_zero_weights(self):
        fusion = make_fusion()
        fusion.params["fuse.Wr"].data[...] = 0.0
        r = fusion.penultimate(Tensor(np.ones((2, 6))))
        np.testing.assert_allclose(r.data, 0.0)

    def test_open_interval_bound(self):
        fusion = make_fusion()
        r = fusion.penultimate(Tensor(np.full((1, 6), 3.0)))
        assert (np.abs(r.data) < 1.0).all()

    def test_paper_default_width(self):
        from geotweet.model import ModelConfig
        assert ModelConfig().penultimate_dim == 400


class TestClassify:
    def test_zero_output_weights_uniform(self):
        fusion = make_fusion(K=3)
        fusion.params["fuse.Wout"].data[...] = 0.0
        fusion.params["fuse.bout"].data[...] = 0.0
        logits = fusion.classify(Tensor(np.random.default_rng(0)
                                        .standard_normal((2, 4))))
        np.testing.assert_array_equal(logits.data, 0.0)
        np.testing.assert_allclose(softmax(logits).data, 1 / 3)

    def test_shift_invariance(self):
        logits = np.random.default_rng(1).standard_normal((3, 5))
        a = softmax(Tensor(logits))
        b = softmax(Tensor(logits + 7.0))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_argmax_tie_breaks_low_index(self):
        logits = np.array([[0.4, 0.4, 0.2]])
        assert predict_labels(logits)[0] == 0


class TestExtremaLoss:
    def test_zero_at_extrema(self):
        r = Tensor([[1.0, -1.0, 1.0]])
        assert float(extrema_loss(r, 0.1).data) == 0.0

    def test_single_zero_element(self):
        assert float(extrema_loss(Tensor([[0.0]]), 0.1).data) == pytest.approx(0.1)

    def test_hand_computed_pair(self):
        loss = extrema_loss(Tensor([[0.5, -0.5]]), 0.1)
        assert float(loss.data) == pytest.approx(0.075)

    def test_even_symmetry(self):
        rng = np.random.default_rng(2)
        r = rng.uniform(-1, 1, (3, 5))
        a = float(extrema_loss(Tensor(r), 0.1).data)
        b = float(extrema_loss(Tensor(-r), 0.1).data)
        assert a == pytest.approx(b)

    def test_maximized_at_zero(self):
        alpha = 0.3
        at_zero = float(extrema_loss(Tensor(np.zeros((1, 8))), alpha).data)
        assert at_zero == pytest.approx(alpha)
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = rng.uniform(-0.999, 0.999, (1, 8))
            assert float(extrema_loss(Tensor(r), alpha).data) <= at_zero + 1e-12

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        r = Tensor(rng.uniform(-0.9, 0.9, (2, 5)), requires_grad=True)
        finite_difference_check({"r": r}, lambda: extrema_loss(r, 0.1))


    def test_op_matches_the_sub_mul_abs_mean_chain(self):
        rng = np.random.default_rng(5)
        r = Tensor(rng.uniform(-1.5, 1.5, (3, 4)), requires_grad=True)
        r.data[0, 0], r.data[1, 2] = 1.0, -1.0
        fused, chain = extrema_loss(r, 0.3), chained_extrema_penalty(r, 0.3)
        assert_matches_oracle(fused.data, chain.data)
        got, = gradients([r], fused)
        want, = gradients([r], chain)
        assert_matches_oracle(got, want)
        # |r| == 1 is the kink, where the gradient is zero
        assert got[0, 0] == got[1, 2] == 0.0

def test_total_loss_gradient_is_sum_of_parts():
    fusion = make_fusion(seed=5)
    x = np.random.default_rng(6).standard_normal((3, 6))
    labels = [0, 2, 1]

    def grads(loss_fn):
        for p in fusion.params.values():
            p.grad = None
        loss_fn().backward()
        return {k: (p.grad.copy() if p.grad is not None
                    else np.zeros_like(p.data))
                for k, p in fusion.params.items()}

    def ce():
        r = fusion.penultimate(Tensor(x))
        return ad.cross_entropy(fusion.classify(r), labels)

    def ex():
        return extrema_loss(fusion.penultimate(Tensor(x)), 0.1)

    def total():
        r = fusion.penultimate(Tensor(x))
        return ad.add(ad.cross_entropy(fusion.classify(r), labels),
                      extrema_loss(r, 0.1))

    g_ce, g_ex, g_tot = grads(ce), grads(ex), grads(total)
    for k in g_tot:
        np.testing.assert_allclose(g_tot[k], g_ce[k] + g_ex[k], atol=1e-12)


def test_plain_mode_reduces_exactly(tiny_corpus):
    # sigma = alpha = 0 must reproduce the plain classifier bit for bit
    from geotweet.model import GeoModel
    from geotweet.trainer import synthetic_model_config
    from conftest import encode_all

    mc0 = synthetic_model_config(noise_sigma=0.0, extrema_alpha=0.0)
    batch = encode_all(tiny_corpus["test"][:8], tiny_corpus, mc0)

    def outputs(mc):
        model = GeoModel(mc, len(tiny_corpus["char_vocab"]),
                         len(tiny_corpus["tz_vocab"]),
                         len(tiny_corpus["label_vocab"]),
                         np.random.default_rng(77))
        logits, r, _ = model.forward(batch, train=False)
        return logits.data, r.data

    p0, r0 = outputs(mc0)
    p1, r1 = outputs(synthetic_model_config(noise_sigma=0.1,
                                            extrema_alpha=0.1))
    np.testing.assert_array_equal(p0, p1)
    np.testing.assert_array_equal(r0, r1)


def test_fusion_gradient_check_with_both_losses():
    fusion = make_fusion(seed=8)
    x = np.random.default_rng(9).standard_normal((2, 6))
    labels = [1, 0]

    def loss():
        r = fusion.penultimate(Tensor(x))
        return ad.add(ad.cross_entropy(fusion.classify(r), labels),
                      extrema_loss(r, 0.1))

    finite_difference_check(fusion.params, loss)
