"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the heavy end-to-end criteria train on generated corpora and take a
few minutes total.
"""

import functools
import inspect
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from geotweet import autodiff as ad
from geotweet import corpus as C
from geotweet import hashing as H
from geotweet.autodiff import Tensor
from geotweet.fusion import FusionClassifier, extrema_loss, predict_labels
from geotweet.loc_net import LocConvNetwork
from geotweet.model import GeoModel
from geotweet.rbf_net import RbfNetwork
from geotweet.text_net import TextNetwork
from geotweet.trainer import (SyntheticConfig, TrainConfig, ablate,
                              evaluate_accuracy, generate_synthetic,
                              synthetic_model_config, train)

from conftest import finite_difference_check
from oracles import (exp, hamming, lstm_sequence, maximum_list, mul, relu,
                     sigmoid, softmax, tmean, tsum)

GRAD_TOL = 1e-4
TRAIN_CONFIG = TrainConfig(batch_size=128, epochs=10, learning_rate=0.002,
                           seed=0)


def _encode_corpus(synth_config, model_config):
    train_recs, dev_recs, test_recs = generate_synthetic(synth_config)
    char_vocab = C.build_char_vocab(
        (r.text + r.user_location for r in train_recs), min_count=5)
    tz_vocab = C.CategoryVocabulary([r.timezone_name for r in train_recs])
    label_vocab = C.CategoryVocabulary([r.city_label for r in train_recs],
                                       with_unk=False)

    def enc(records):
        return C.encode_records(records, char_vocab, tz_vocab, label_vocab,
                                model_config)

    return {
        "train": enc(train_recs), "dev": enc(dev_recs), "test": enc(test_recs),
        "char_vocab": char_vocab, "tz_vocab": tz_vocab,
        "label_vocab": label_vocab,
    }


def _train_model(corpus, model_config, train_config=TRAIN_CONFIG):
    model = GeoModel(model_config, len(corpus["char_vocab"]),
                     len(corpus["tz_vocab"]), len(corpus["label_vocab"]),
                     np.random.default_rng(train_config.seed))
    report = train(model, corpus["train"], corpus["dev"], train_config)
    return model, report


@pytest.fixture(scope="session")
def metadata_corpus():
    """20 cities; labels carried by location tokens, time and timezone."""
    return _encode_corpus(
        SyntheticConfig(n_cities=20, n_train=10000, n_dev=1000, n_test=1000,
                        seed=100),
        synthetic_model_config(penultimate_dim=100))


@pytest.fixture(scope="session")
def plain_model(metadata_corpus):
    return _train_model(metadata_corpus,
                        synthetic_model_config(penultimate_dim=100))


@pytest.fixture(scope="session")
def noise_model(metadata_corpus):
    return _train_model(
        metadata_corpus,
        synthetic_model_config(penultimate_dim=100, noise_sigma=0.1,
                               extrema_alpha=0.1))


@pytest.fixture(scope="session")
def text_signal_corpus():
    """Label signal embedded in the message text; location/timezone random."""
    return _encode_corpus(
        SyntheticConfig(n_cities=20, n_train=10000, n_dev=1000, n_test=1000,
                        seed=200, location_informative=False,
                        timezone_informative=False, text_informative=True),
        synthetic_model_config(penultimate_dim=100))


def test_criterion_1_gradient_integrity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    checked = set()  # the ops of every graph backpropagated below
    fd_check = functools.partial(finite_difference_check, ops=checked)

    def param(shape, scale=1.0):
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

    def check(build, shapes, seed):
        params = {f"p{i}": param(s) for i, s in enumerate(shapes)}
        fd_check(params, lambda: build(*params.values()),
                 rel_tol=GRAD_TOL, max_coords=3, seed=seed)

    def dims(lo=1, hi=5):
        return int(rng.integers(lo, hi))

    for trial in range(20):
        m, k, n = dims(), dims(), dims()
        check(lambda a, b: tsum(ad.matmul(a, b)), [(m, k), (k, n)], trial)
        check(lambda a, b: tsum(sigmoid(ad.add(a, b))),
              [(m, n), (n,)], trial)
        check(lambda a, b: tsum(ad.tanh(ad.concat([a, b], axis=1))),
              [(m, k), (m, n)], trial)
        check(lambda a: tsum(mul(softmax(a), softmax(a))),
              [(m, n + 1)], trial)
        check(lambda a, b, c: tsum(maximum_list([a, b, c])),
              [(m, n)] * 3, trial)
        check(lambda a: tmean(relu(a)), [(m, n)], trial)
        check(lambda a: tsum(tmean(exp(a), axis=0)), [(m, n)], trial)

        table = param((4, 3))
        ids = rng.integers(0, 4, size=(2, 3))
        fd_check(
            {"t": table}, lambda: tsum(ad.tanh(ad.embedding(ids, table))),
            rel_tol=GRAD_TOL, max_coords=3, seed=trial)

        x = param((3, 4))
        mask_seed = trial

        def dropout_loss():
            out = ad.dropout(x, 0.6, np.random.default_rng(mask_seed),
                             train=True)
            return tsum(ad.tanh(out))

        def noise_loss():
            out = ad.gaussian_noise(x, 0.3, np.random.default_rng(mask_seed))
            return tsum(ad.tanh(out))

        fd_check({"x": x}, dropout_loss, rel_tol=GRAD_TOL,
                 max_coords=3, seed=trial)
        fd_check({"x": x}, noise_loss, rel_tol=GRAD_TOL,
                 max_coords=3, seed=trial)

        logits = param((3, 4))
        labels = rng.integers(0, 4, size=3)
        fd_check(
            {"l": logits},
            lambda: ad.cross_entropy(logits, labels),
            rel_tol=GRAD_TOL, max_coords=3, seed=trial)

    # subnetworks
    for trial in range(20):
        net = TextNetwork(np.random.default_rng(trial), 7, 2, 4, 3, 3)
        ids = rng.integers(0, 7, size=(2, 5))

        def bilstm_proj_loss():
            seq = net.char_vectors(ids)
            g = net.contextual_projection(seq, net.bilstm_contexts(seq))
            return tsum(ad.tanh(g))

        def attention_loss():
            f, _ = net.forward(ids)
            return tsum(mul(f, f))

        bilstm_params = {k: v for k, v in net.params.items()
                         if k.split(".")[-1] not in ("Wv", "bv", "v")}
        fd_check(bilstm_params, bilstm_proj_loss,
                 rel_tol=GRAD_TOL, max_coords=2, seed=trial)
        fd_check(net.params, attention_loss,
                 rel_tol=GRAD_TOL, max_coords=2, seed=trial)

        rbf = RbfNetwork(4, "time")
        rbf.params["time.mu"].data[...] = rng.uniform(0, 1, 4)
        rbf.params["time.sigma"].data[...] = rng.uniform(0.05, 0.5, 4)
        u = rng.uniform(0, 1, 3)
        fd_check(
            rbf.params, lambda: tsum(mul(rbf.forward(u), 2.0)),
            rel_tol=GRAD_TOL, max_coords=3, seed=trial)

        conv = LocConvNetwork(np.random.default_rng(trial), 7, 3, 2, 4)
        loc_ids = rng.integers(0, 7, size=(2, 5))
        fd_check(
            conv.params, lambda: tsum(ad.tanh(conv.forward(loc_ids))),
            rel_tol=GRAD_TOL, max_coords=3, seed=trial)

        fusion = FusionClassifier(np.random.default_rng(trial), 6, 4, 3)
        x_in = rng.standard_normal((2, 6))
        labels = rng.integers(0, 3, size=2)

        def fusion_loss():
            r = fusion.penultimate(Tensor(x_in))
            return ad.add(ad.cross_entropy(fusion.classify(r), labels),
                          extrema_loss(r, 0.1))

        fd_check(fusion.params, fusion_loss, rel_tol=GRAD_TOL,
                 max_coords=3, seed=trial)

    # fused sequence ops, after the checks above so that their draws are unchanged
    for trial in range(20):
        T, batch, E, H = dims(1, 6), dims(), dims(), dims()
        P = int(rng.integers(1, T + 1))
        check(lambda a: tsum(ad.tanh(ad.window_max(a, P))),
              [(T, batch, H)], trial)
        for reverse in (False, True):
            check(lambda x, wx, wh, b: tsum(ad.tanh(
                      lstm_sequence(x, wx, wh, b, reverse=reverse))),
                  [(T, batch, E), (E, 4 * H), (H, 4 * H), (4 * H,)], trial)

    # the bidirectional op over ids and a table, after the checks above so
    # that their draws are unchanged
    for trial in range(20):
        T, batch, E, H, V = dims(1, 6), dims(), dims(), dims(), dims()
        ids = rng.integers(0, V, size=(T, batch))
        check(lambda table, *w: tsum(ad.tanh(
                  ad.bilstm_sequence(ids, table, w[:3], w[3:]))),
              [(V, E)] + [(E, 4 * H), (H, 4 * H), (4 * H,)] * 2, trial)

    # the fused context projection over ids and a table, after the checks
    # above so that their draws are unchanged
    for trial in range(20):
        T, batch, E, H, O, V = (dims(1, 6), dims(), dims(), dims(), dims(),
                                dims())
        ids = rng.integers(0, V, size=(T, batch))
        check(lambda table, hs, w, b: tsum(ad.tanh(
                  ad.context_projection(ids, table, hs, w, b))),
              [(V, E), (2, T, batch, H), (2 * H + E, O), (O,)], trial)

    # the fused RBF, attention and extrema ops, after the checks above so
    # that their draws are unchanged
    for trial in range(20):
        S, batch, O, A, bins = dims(1, 6), dims(), dims(), dims(), dims()
        u = rng.uniform(0, 1, batch)
        mu = param((bins,))
        sigma = Tensor(rng.uniform(0.3, 1.0, bins), requires_grad=True)
        fd_check({"mu": mu, "sigma": sigma},
                 lambda: tsum(ad.tanh(ad.rbf(u, mu, sigma))),
                 rel_tol=GRAD_TOL, max_coords=3, seed=trial)
        check(lambda spans, wv, bv, v: tsum(ad.tanh(
                  ad.attention_pool(spans, wv, bv, v)[0])),
              [(S, batch, O), (O, A), (A,), (A, 1)], trial)
        check(lambda r: ad.extrema_penalty(r, 0.3), [(batch, O)], trial)

    # the location conv and its max over spans, after the checks above so
    # that their draws are unchanged
    for trial in range(20):
        T, batch, E, O = dims(1, 6), dims(), dims(), dims()
        Q = int(rng.integers(1, T + 1))
        check(lambda x, w, b: tsum(ad.tanh(ad.span_conv_max(x, w, b))),
              [(T, batch, E), (Q * E, O), (O,)], trial)

    # every op the engine offers has been through a check above
    ops = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
           if not name.startswith("_") and "_make" in fn.__code__.co_names}
    missing = sorted(ops - checked)
    assert not missing, f"ops with no finite-difference check: {missing}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: gradient integrity of {len(ops)} ops "
          f"(rel tol {GRAD_TOL}, {elapsed:.1f}s)")


def test_criterion_2_exact_preprocessing():
    ts = datetime(2010, 7, 29, 17, 25, 0, tzinfo=timezone.utc)
    assert round(C.normalize_time_of_day(ts), 3) == 0.726

    net = TextNetwork(np.random.default_rng(0), 5, 2, 3, 10)
    g = ad.Tensor(np.zeros((300, 1, 3)))
    assert net.windowed_max_pool(g).shape[0] == 291
    assert net.windowed_max_pool(g, window=300).shape[0] == 1
    print("\nACCEPTANCE 2 PASS: exact preprocessing "
          "(17:25 -> 0.726; 300/10 -> 291 spans; P=T -> 1 span)")


def test_criterion_3_synthetic_end_to_end(metadata_corpus, plain_model):
    model, report = plain_model
    accuracy = evaluate_accuracy(model, metadata_corpus["test"])
    assert len(report.dev_accuracy) == 10
    assert accuracy >= 0.95
    assert report.wall_clock_seconds <= 900
    print(f"\nACCEPTANCE 3 PASS: synthetic end-to-end test accuracy "
          f"{accuracy:.3f} in {report.wall_clock_seconds:.0f}s")


def test_criterion_4_ablation_fidelity():
    corpus = _encode_corpus(
        SyntheticConfig(n_cities=10, n_train=3000, n_dev=400, n_test=400,
                        seed=300, time_informative=False,
                        timezone_informative=False),
        synthetic_model_config())

    def build(cfg, seed):
        return GeoModel(cfg, len(corpus["char_vocab"]),
                        len(corpus["tz_vocab"]), len(corpus["label_vocab"]),
                        np.random.default_rng(seed))

    baseline, deltas = ablate(
        build, corpus["train"], corpus["dev"], corpus["test"],
        synthetic_model_config(),
        TrainConfig(batch_size=128, epochs=6, learning_rate=0.002, seed=0),
        features=["location", "account_time"])
    assert deltas["location"] <= -0.5
    assert abs(deltas["account_time"]) <= 0.05
    print(f"\nACCEPTANCE 4 PASS: ablation baseline {baseline:.3f}, "
          f"-location {deltas['location']:+.3f}, "
          f"-account_time {deltas['account_time']:+.3f}")


def test_criterion_5_binarization_behavior(metadata_corpus, plain_model,
                                           noise_model):
    base_model, _ = plain_model
    hash_model, _ = noise_model
    base_reps, _ = H.compute_representations(base_model,
                                             metadata_corpus["test"])
    hash_reps, _ = H.compute_representations(hash_model,
                                             metadata_corpus["test"])
    base_frac = H.extreme_fraction(base_reps)
    hash_frac = H.extreme_fraction(hash_reps)
    assert hash_frac >= 2 * base_frac
    base_acc = evaluate_accuracy(base_model, metadata_corpus["test"])
    hash_acc = evaluate_accuracy(hash_model, metadata_corpus["test"])
    assert base_acc - hash_acc <= 0.02
    print(f"\nACCEPTANCE 5 PASS: |r|>=0.9 fraction {base_frac:.3f} -> "
          f"{hash_frac:.3f}; accuracy {base_acc:.3f} -> {hash_acc:.3f}")


def test_logit_argmax_is_softmax_argmax(metadata_corpus, plain_model,
                                        noise_model):
    """Predictions take the argmax of the logits. On the trained models that
    is a class of largest float32 softmax probability in every row, and the
    softmax row's own argmax unless rounding ties two classes there."""
    arrays = metadata_corpus["test"]
    rows = np.arange(len(arrays["label_id"]))
    ties = 0
    for model, _ in (plain_model, noise_model):
        logits = model.forward(arrays, train=False)[0].data
        probs = softmax(logits).data
        top = probs.max(axis=1)
        by_logits = predict_labels(logits)
        np.testing.assert_array_equal(probs[rows, by_logits], top)
        tied = (probs == top[:, None]).sum(axis=1) > 1
        np.testing.assert_array_equal(by_logits[~tied],
                                      predict_labels(probs)[~tied])
        ties += int(tied.sum())
    print(f"\nlogit argmax = softmax argmax on 2 x {len(rows)} test rows; "
          f"{ties} rows with a float32 softmax tie")


def test_criterion_6_retrieval_oracles():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        width = int(rng.integers(1, 16))
        n_labels = int(rng.integers(1, 6))
        dev = H.CodeSet(bits=rng.integers(0, 2, (n, width)).astype(np.uint8),
                        ids=np.arange(n, dtype=np.int64),
                        labels=rng.integers(0, n_labels, n).astype(np.int64))
        query = rng.integers(0, 2, width).astype(np.uint8)
        got = list(H.retrieve(query, dev))
        expected = sorted(range(n),
                          key=lambda i: (hamming(query, dev.bits[i]), i))
        assert got == expected

        label = int(rng.integers(0, n_labels))
        relevant = {int(i) for i in dev.ids[dev.labels == label]}
        if relevant:
            hits, total = 0, 0.0
            for rank, item in enumerate(got, start=1):
                if item in relevant:
                    hits += 1
                    total += hits / rank
            assert H.average_precision(got, relevant) == pytest.approx(
                total / len(relevant))

        test = H.CodeSet(bits=rng.integers(0, 2, (5, width)).astype(np.uint8),
                         ids=np.arange(5, dtype=np.int64),
                         labels=rng.integers(0, n_labels, 5).astype(np.int64))
        mean_ap, _ = H.map_from_codes(test, dev)
        aps = []
        for bits, lab in zip(test.bits, test.labels):
            rel = {int(i) for i in dev.ids[dev.labels == lab]}
            if rel:
                aps.append(H.average_precision(list(H.retrieve(bits, dev)),
                                               rel))
        assert mean_ap == pytest.approx(np.mean(aps) if aps else 0.0)

    lsh = H.LshModel(10_000, 3, np.random.default_rng(1))
    for theta in (0.4, 1.0, 1.8, 2.6):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([np.cos(theta), np.sin(theta), 0.0])
        agreement = float((lsh.encode(a) == lsh.encode(b)).mean())
        assert agreement == pytest.approx(1 - theta / np.pi, abs=0.02)
    print("\nACCEPTANCE 6 PASS: retrieval/AP/MAP match brute force on 100 "
          "instances; LSH agreement tracks 1 - theta/pi within 0.02")


def test_criterion_7_supervised_vs_unsupervised_codes(text_signal_corpus):
    model, _ = _train_model(
        text_signal_corpus,
        synthetic_model_config(penultimate_dim=100, noise_sigma=0.1,
                               extrema_alpha=0.1))
    dev_codes = H.encode_code_set(model, text_signal_corpus["dev"])
    test_codes = H.encode_code_set(model, text_signal_corpus["test"])
    assert dev_codes.width == 100
    map_trained, _ = H.map_from_codes(test_codes, dev_codes)

    n_chars = len(text_signal_corpus["char_vocab"])
    n_tz = len(text_signal_corpus["tz_vocab"])
    dev_raw = H.raw_feature_matrix(text_signal_corpus["dev"], n_chars, n_tz)
    test_raw = H.raw_feature_matrix(text_signal_corpus["test"], n_chars, n_tz)
    lsh = H.LshModel(100, dev_raw.shape[1], np.random.default_rng(1))
    dev_lsh = H.CodeSet(lsh.encode(dev_raw), dev_codes.ids, dev_codes.labels)
    test_lsh = H.CodeSet(lsh.encode(test_raw), test_codes.ids,
                         test_codes.labels)
    map_lsh, _ = H.map_from_codes(test_lsh, dev_lsh)
    assert map_trained >= 3 * map_lsh
    print(f"\nACCEPTANCE 7 PASS: MAP trained {map_trained:.3f} vs LSH "
          f"{map_lsh:.3f} ({map_trained / max(map_lsh, 1e-9):.1f}x)")


def test_criterion_8_determinism(tmp_path):
    from geotweet.cli import main

    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--cities", "4",
                 "--train-size", "300", "--dev-size", "60",
                 "--test-size", "60", "--seed", "13"]) == 0

    def run(tag):
        out = tmp_path / tag
        assert main(["train", "--train", str(data / "train.jsonl"),
                     "--dev", str(data / "dev.jsonl"),
                     "--out", str(out), "--synthetic-scale",
                     "--batch-size", "64", "--epochs", "2",
                     "--min-char-count", "1", "--seed", "13"]) == 0
        codes = tmp_path / f"{tag}.codes"
        assert main(["hash", "--model", str(out),
                     "--data", str(data / "test.jsonl"),
                     "--out", str(codes)]) == 0
        return out, codes

    (run_a, codes_a), (run_b, codes_b) = run("a"), run("b")
    for name in ("model.gtpa", "model.gtpa.json", "report.txt",
                 "char_vocab.txt", "labels.txt"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    assert codes_a.read_bytes() == codes_b.read_bytes()
    print("\nACCEPTANCE 8 PASS: identical seed and config give bit-identical "
          "checkpoints, reports and code files")
