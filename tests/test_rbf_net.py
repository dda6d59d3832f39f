import math

import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet.rbf_net import RbfNetwork, bin_weight_profile, SIGMA_FLOOR

from conftest import assert_matches_oracle, finite_difference_check, gradients
from oracles import chained_rbf, mul, tsum


def test_activation_peaks_at_mean():
    net = RbfNetwork(4, "time")
    mu = net.params["time.mu"].data
    out = net.forward(np.array([mu[2]]))
    assert out.data[0, 2] == pytest.approx(1.0)


def test_one_sigma_away():
    net = RbfNetwork(4, "time")
    mu = net.params["time.mu"].data
    sigma = net.params["time.sigma"].data
    out = net.forward(np.array([mu[1] + sigma[1], mu[1] - sigma[1]]))
    assert out.data[0, 1] == pytest.approx(math.exp(-0.5))
    assert out.data[1, 1] == pytest.approx(math.exp(-0.5))


def test_output_in_unit_interval():
    net = RbfNetwork(8, "time")
    out = net.forward(np.linspace(0, 1, 50))
    assert (out.data > 0).all() and (out.data <= 1).all()


def test_symmetry_around_mean():
    net = RbfNetwork(5, "time")
    mu = net.params["time.mu"].data
    for d in (0.03, 0.2, 1.4):
        plus = net.forward(np.array([mu[0] + d])).data[0, 0]
        minus = net.forward(np.array([mu[0] - d])).data[0, 0]
        assert plus == pytest.approx(minus)


def test_initial_means_cover_unit_interval():
    net = RbfNetwork(10, "time")
    mu = net.params["time.mu"].data
    np.testing.assert_allclose(mu, (np.arange(10) + 0.5) / 10)
    np.testing.assert_allclose(net.params["time.sigma"].data, 1 / 20)


def test_sigma_clamped_to_floor():
    net = RbfNetwork(3, "time")
    net.params["time.sigma"].data[...] = [1e-9, 0.5, -2.0]
    net.clamp_sigma()
    np.testing.assert_allclose(net.params["time.sigma"].data,
                               [SIGMA_FLOOR, 0.5, SIGMA_FLOOR])


def test_gradient_check_mu_sigma():
    rng = np.random.default_rng(0)
    for trial in range(5):
        net = RbfNetwork(4, "time")
        net.params["time.mu"].data[...] = rng.uniform(0, 1, 4)
        net.params["time.sigma"].data[...] = rng.uniform(0.05, 0.5, 4)
        u = rng.uniform(0, 1, 3)
        finite_difference_check(
            net.params, lambda: tsum(mul(net.forward(u), 2.0)),
            seed=trial)


@pytest.mark.parametrize("u_at_mu", [False, True], ids=["random", "u-equals-mu"])
def test_op_matches_the_sub_mul_div_exp_chain(u_at_mu):
    rng = np.random.default_rng(5)
    mu = ad.Tensor(rng.uniform(0, 1, 5), requires_grad=True)
    sigma = ad.Tensor(rng.uniform(0.05, 0.5, 5), requires_grad=True)
    u = rng.uniform(0, 1, 4)
    if u_at_mu:
        u[:3] = mu.data[[0, 2, 4]]
    upstream = rng.standard_normal((4, 5))
    fused, chain = ad.rbf(u, mu, sigma), chained_rbf(u, mu, sigma)
    assert fused.shape == (4, 5)
    assert_matches_oracle(fused.data, chain.data)
    if u_at_mu:
        np.testing.assert_array_equal(fused.data[[0, 1, 2], [0, 2, 4]], 1.0)
    for got, want in zip(gradients([mu, sigma], tsum(mul(fused, upstream))),
                         gradients([mu, sigma], tsum(mul(chain, upstream)))):
        assert_matches_oracle(got, want)


class TestBinWeightProfile:
    def test_exact_hit(self):
        acts = np.zeros((4, 5))
        acts[:, 3] = 1.0
        means, excluded = bin_weight_profile(acts)
        assert means[3] == 1.0 and not excluded[3]

    def test_threshold_boundary_retained(self):
        # strict "<" comparison keeps a bin at exactly the threshold
        acts = np.full((2, 3), 0.075)
        _, excluded = bin_weight_profile(acts)
        assert not excluded.any()
        _, excluded = bin_weight_profile(np.full((2, 3), 0.0749))
        assert excluded.all()

    def test_empty_city_rejected(self):
        with pytest.raises(ValueError, match="no examples"):
            bin_weight_profile(np.empty((0, 4)))


def test_two_cities_half_day_apart_learn_different_bins():
    # plant activity 12h apart; after training, the strongest mean-weight
    # bin differs between the two cities
    from geotweet.model import GeoModel
    from geotweet.trainer import (SyntheticConfig, TrainConfig,
                                  generate_synthetic, synthetic_model_config,
                                  train)
    from geotweet import corpus as C

    cfg = SyntheticConfig(n_cities=2, n_train=300, n_dev=60, n_test=60,
                          seed=21, location_informative=False,
                          timezone_informative=False, time_std_hours=1.0)
    train_recs, dev_recs, _ = generate_synthetic(cfg)
    char_vocab = C.build_char_vocab(
        (r.text + r.user_location for r in train_recs), min_count=1)
    tzs = C.CategoryVocabulary([r.timezone_name for r in train_recs])
    labels = C.CategoryVocabulary([r.city_label for r in train_recs],
                                  with_unk=False)
    mc = synthetic_model_config()
    arrays = C.encode_records(train_recs, char_vocab, tzs, labels, mc)
    dev = C.encode_records(dev_recs, char_vocab, tzs, labels, mc)
    model = GeoModel(mc, len(char_vocab), len(tzs), len(labels),
                     np.random.default_rng(0))
    train(model, arrays, dev, TrainConfig(batch_size=64, epochs=4, seed=0))
    acts = model.nets["tweet_time"].forward(arrays["tweet_time"]).data
    profiles = []
    for label in (0, 1):
        means, _ = bin_weight_profile(acts[arrays["label_id"] == label])
        profiles.append(int(np.argmax(means)))
    assert profiles[0] != profiles[1]
