import numpy as np
import pytest

import geotweet.trainer as trainer_mod
from geotweet import autodiff as ad
from geotweet.model import GeoModel, batch_arrays
from geotweet.trainer import (SyntheticConfig, TrainConfig, evaluate_accuracy,
                              generate_synthetic, synthetic_model_config,
                              train)

from conftest import encode_all


def build_model(corpus, config, seed):
    return GeoModel(config, len(corpus["char_vocab"]), len(corpus["tz_vocab"]),
                    len(corpus["label_vocab"]), np.random.default_rng(seed))


@pytest.fixture
def tiny_encoded(tiny_corpus):
    mc = synthetic_model_config()
    return {
        "config": mc,
        "train": encode_all(tiny_corpus["train"], tiny_corpus,
                            mc.text_max_len, mc.loc_max_len),
        "dev": encode_all(tiny_corpus["dev"], tiny_corpus,
                          mc.text_max_len, mc.loc_max_len),
        "test": encode_all(tiny_corpus["test"], tiny_corpus,
                           mc.text_max_len, mc.loc_max_len),
    }


class TestEvaluateAccuracy:
    def test_all_correct(self, tiny_corpus, tiny_encoded):
        model = build_model(tiny_corpus, tiny_encoded["config"], 0)
        arrays = batch_arrays(tiny_encoded["test"][:10])
        probs, _, _ = model.forward(arrays, train=False)
        arrays["label_id"] = probs.data.argmax(axis=1)
        assert evaluate_accuracy(model, arrays) == 1.0

    def test_zero_output_weights_predict_class_zero(self, tiny_corpus,
                                                    tiny_encoded):
        model = build_model(tiny_corpus, tiny_encoded["config"], 0)
        model.params["fuse.Wout"].data[...] = 0.0
        model.params["fuse.bout"].data[...] = 0.0
        arrays = batch_arrays(tiny_encoded["test"])
        expected = (arrays["label_id"] == 0).mean()
        assert evaluate_accuracy(model, arrays) == pytest.approx(expected)

    def test_empty_set_rejected(self, tiny_corpus, tiny_encoded):
        model = build_model(tiny_corpus, tiny_encoded["config"], 0)
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(model, [])


class TestRevertRule:
    def test_revert_restores_previous_snapshot(self, tiny_corpus,
                                               tiny_encoded, monkeypatch):
        scores = iter([0.5, 0.1])
        monkeypatch.setattr(trainer_mod, "evaluate_accuracy",
                            lambda *a, **k: next(scores))
        config = TrainConfig(batch_size=64, epochs=2, seed=3)
        model = build_model(tiny_corpus, tiny_encoded["config"], 3)
        report = train(model, tiny_encoded["train"][:128],
                       tiny_encoded["dev"][:32], config)
        assert report.revert_epochs == [2]
        # final params must equal the accepted epoch-1 snapshot
        ref_scores = iter([0.5])
        monkeypatch.setattr(trainer_mod, "evaluate_accuracy",
                            lambda *a, **k: next(ref_scores))
        ref = build_model(tiny_corpus, tiny_encoded["config"], 3)
        train(ref, tiny_encoded["train"][:128], tiny_encoded["dev"][:32],
              TrainConfig(batch_size=64, epochs=1, seed=3))
        for name, arr in ref.param_arrays().items():
            np.testing.assert_array_equal(model.param_arrays()[name], arr)

    def test_monotone_accuracy_never_reverts(self, tiny_corpus, tiny_encoded,
                                             monkeypatch):
        scores = iter([0.1, 0.2, 0.3])
        monkeypatch.setattr(trainer_mod, "evaluate_accuracy",
                            lambda *a, **k: next(scores))
        model = build_model(tiny_corpus, tiny_encoded["config"], 0)
        report = train(model, tiny_encoded["train"][:128],
                       tiny_encoded["dev"][:32],
                       TrainConfig(batch_size=64, epochs=3, seed=0))
        assert report.revert_epochs == []

    def test_accepted_accuracy_never_decreases(self, tiny_corpus,
                                               tiny_encoded):
        model = build_model(tiny_corpus, tiny_encoded["config"], 1)
        report = train(model, tiny_encoded["train"], tiny_encoded["dev"],
                       TrainConfig(batch_size=64, epochs=4, seed=1))
        accepted = -1.0
        for epoch, acc in enumerate(report.dev_accuracy, start=1):
            if epoch not in report.revert_epochs:
                assert acc >= accepted
                accepted = acc

    def test_empty_split_rejected(self, tiny_corpus, tiny_encoded):
        model = build_model(tiny_corpus, tiny_encoded["config"], 0)
        with pytest.raises(ValueError, match="non-empty"):
            train(model, [], tiny_encoded["dev"], TrainConfig())


def test_bit_reproducible_runs(tiny_corpus, tiny_encoded):
    config = TrainConfig(batch_size=64, epochs=2, seed=9)

    def run():
        model = build_model(tiny_corpus, tiny_encoded["config"], 9)
        report = train(model, tiny_encoded["train"], tiny_encoded["dev"],
                       config)
        return model.param_arrays(), report

    params_a, report_a = run()
    params_b, report_b = run()
    assert report_a.dev_accuracy == report_b.dev_accuracy
    assert report_a.revert_epochs == report_b.revert_epochs
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])


def test_overfit_capacity_sanity(tiny_corpus, tiny_encoded):
    # training loss on 32 examples reaches < 0.01 within 500 steps
    from geotweet.optim import Adam

    model = build_model(tiny_corpus, tiny_encoded["config"], 5)
    batch = batch_arrays(tiny_encoded["train"][:32])
    optimizer = Adam(model.params, learning_rate=0.005)
    rng = np.random.default_rng(5)
    loss_value = None
    for step in range(500):
        loss, _, _ = model.loss(batch, train=True, rng=rng)
        loss_value = float(loss.data)
        if loss_value < 0.01:
            break
        loss.backward()
        optimizer.step()
        model.clamp()
    assert loss_value < 0.01


def test_incomplete_final_minibatch_is_kept(tiny_corpus, tiny_encoded,
                                            monkeypatch):
    seen = []
    original = trainer_mod.iter_batches

    def spy(arrays, batch_size, order=None):
        for batch in original(arrays, batch_size, order):
            seen.append(len(batch["label_id"]))
            yield batch

    monkeypatch.setattr(trainer_mod, "iter_batches", spy)
    model = build_model(tiny_corpus, tiny_encoded["config"], 0)
    train(model, tiny_encoded["train"][:100], tiny_encoded["dev"][:16],
          TrainConfig(batch_size=64, epochs=1, seed=0))
    assert seen[:2] == [64, 36]


class TestSyntheticCorpus:
    def test_sizes_and_labels(self):
        cfg = SyntheticConfig(n_cities=4, n_train=50, n_dev=10, n_test=10,
                              seed=0)
        train_recs, dev_recs, test_recs = generate_synthetic(cfg)
        assert (len(train_recs), len(dev_recs), len(test_recs)) == (50, 10, 10)
        labels = {r.city_label for r in train_recs}
        assert labels <= {f"city{i:02d}" for i in range(4)}

    def test_location_tokens_unique_per_city(self):
        cfg = SyntheticConfig(n_cities=6, n_train=200, n_dev=10, n_test=10,
                              seed=1)
        train_recs, _, _ = generate_synthetic(cfg)
        token_by_city = {}
        for r in train_recs:
            token = r.user_location.split()[0]
            token_by_city.setdefault(r.city_label, set()).add(token)
        tokens = [next(iter(s)) for s in token_by_city.values()]
        assert all(len(s) == 1 for s in token_by_city.values())
        assert len(set(tokens)) == len(tokens)

    def test_uninformative_location_knob(self):
        cfg = SyntheticConfig(n_cities=3, n_train=100, n_dev=10, n_test=10,
                              seed=2, location_informative=False)
        train_recs, _, _ = generate_synthetic(cfg)
        per_city = {}
        for r in train_recs:
            per_city.setdefault(r.city_label, set()).add(r.user_location)
        # random locations should rarely repeat within a city
        assert all(len(locs) > 1 for locs in per_city.values())

    def test_deterministic_generation(self):
        cfg = SyntheticConfig(n_cities=3, n_train=20, n_dev=5, n_test=5,
                              seed=7)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert [r.text for r in a[0]] == [r.text for r in b[0]]


def test_ablate_rejects_unknown_feature(tiny_corpus, tiny_encoded):
    from geotweet.trainer import ablate

    def build(cfg, seed):
        return build_model(tiny_corpus, cfg, seed)

    with pytest.raises(ValueError, match="not in the model"):
        ablate(build, tiny_encoded["train"], tiny_encoded["dev"],
               tiny_encoded["test"], tiny_encoded["config"],
               TrainConfig(epochs=1), features=["bogus"])


def test_batch_size_must_be_positive(tiny_corpus, tiny_encoded):
    model = build_model(tiny_corpus, tiny_encoded["config"], 0)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        train(model, tiny_encoded["train"], tiny_encoded["dev"],
              TrainConfig(batch_size=0))


def test_non_finite_loss_stops_training(tiny_corpus, tiny_encoded):
    model = build_model(tiny_corpus, tiny_encoded["config"], 0)
    # the first Adam step moves every weight by about 1e300
    with pytest.raises(ValueError,
                       match=r"^non-finite loss at epoch 1, batch 2$"):
        train(model, tiny_encoded["train"], tiny_encoded["dev"],
              TrainConfig(batch_size=64, epochs=2, learning_rate=1e300))


def test_non_finite_gradient_stops_training(tiny_corpus, tiny_encoded,
                                            monkeypatch):
    model = build_model(tiny_corpus, tiny_encoded["config"], 0)
    original = model.loss
    bias = model.params["fuse.bout"]

    def loss(batch, **kwargs):
        total, probs, r = original(batch, **kwargs)
        # a finite term whose gradient, -1e-20 / bias**2, overflows float32
        bias.data[0] = 1e-30
        term = ad.tsum(ad.div(1e-20, bias[0:1]))
        return ad.add(total, term), probs, r

    monkeypatch.setattr(model, "loss", loss)
    with pytest.raises(ValueError, match=r"^non-finite gradient of fuse.bout "
                                         r"at epoch 1, batch 1$"):
        train(model, tiny_encoded["train"], tiny_encoded["dev"],
              TrainConfig(batch_size=64, epochs=1))
