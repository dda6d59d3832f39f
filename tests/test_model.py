import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import geotweet.model as model_mod
from geotweet.archive import load_archive, save_archive
from geotweet.model import (FEATURES, GeoModel, ModelConfig, batch_arrays,
                            load_checkpoint, save_checkpoint)
from geotweet.optim import Adam
from geotweet.trainer import synthetic_model_config

from conftest import encode_all, graph_nodes


def test_message_only_uses_wider_text_output():
    cfg = ModelConfig.message_only_defaults()
    assert cfg.text_out_size == 600
    assert cfg.active_features() == ("text",)


def test_tweet_user_defaults_match_hyperparameter_table():
    cfg = ModelConfig()
    assert (cfg.text_max_len, cfg.text_emb_size, cfg.text_window,
            cfg.text_out_size) == (300, 200, 10, 400)
    assert (cfg.time_bins, cfg.offset_bins, cfg.account_bins) == (50, 50, 10)
    assert (cfg.loc_max_len, cfg.loc_emb_size, cfg.loc_span,
            cfg.loc_out_size) == (20, 300, 3, 300)
    assert cfg.penultimate_dim == 400 and cfg.dropout == 0.2


def test_removed_feature_must_exist():
    with pytest.raises(ValueError, match="not in the model"):
        ModelConfig(removed_features=("bogus",))


def test_feature_networks_share_no_parameters(tiny_corpus):
    model = GeoModel(synthetic_model_config(), len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(0))
    names = list(model.params)
    assert len(names) == len(set(names))
    # text and location own separate embedding tables
    assert model.params["text.emb"] is not model.params["loc.emb"]


def test_checkpoint_roundtrip(tiny_corpus, tmp_path):
    cfg = synthetic_model_config()
    model = GeoModel(cfg, len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(1))
    path = str(tmp_path / "model.gtpa")
    save_checkpoint(path, model, seed=42)
    restored, meta = load_checkpoint(path)
    assert meta["seed"] == 42
    assert restored.config == model.config
    examples = encode_all(tiny_corpus["test"][:4], tiny_corpus,
                          cfg.text_max_len, cfg.loc_max_len)
    batch = batch_arrays(examples)
    a, _, _ = model.forward(batch, train=False)
    b, _, _ = restored.forward(batch, train=False)
    np.testing.assert_array_equal(a.data, b.data)
    # float32 -> float64 on disk -> float32 is exact
    for name, p in model.params.items():
        assert restored.params[name].data.dtype == np.float32
        np.testing.assert_array_equal(restored.params[name].data, p.data)


def test_checkpoint_dimension_mismatch_detected(tiny_corpus, tmp_path):
    cfg = synthetic_model_config()
    model = GeoModel(cfg, len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(1))
    other = GeoModel(synthetic_model_config(penultimate_dim=32),
                     len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(1))
    with pytest.raises(ValueError, match="shape"):
        other.load_param_arrays(model.param_arrays())


def test_ablated_model_has_narrower_fusion(tiny_corpus):
    base = GeoModel(synthetic_model_config(), len(tiny_corpus["char_vocab"]),
                    len(tiny_corpus["tz_vocab"]),
                    len(tiny_corpus["label_vocab"]), np.random.default_rng(0))
    ablated_cfg = synthetic_model_config(removed_features=("location",))
    ablated = GeoModel(ablated_cfg, len(tiny_corpus["char_vocab"]),
                       len(tiny_corpus["tz_vocab"]),
                       len(tiny_corpus["label_vocab"]),
                       np.random.default_rng(0))
    assert "location" not in ablated.features
    diff = base.fusion.input_dim - ablated.fusion.input_dim
    assert diff == base.config.loc_out_size


@pytest.mark.parametrize("feat", list(FEATURES))
def test_feature_table_entry(feat, tiny_corpus, monkeypatch):
    sizes = (len(tiny_corpus["char_vocab"]), len(tiny_corpus["tz_vocab"]))
    cfg = synthetic_model_config(
        removed_features=tuple(f for f in FEATURES if f != feat))
    model = GeoModel(cfg, *sizes, len(tiny_corpus["label_vocab"]),
                     np.random.default_rng(0))
    _, width = FEATURES[feat].build(cfg, *sizes, np.random.default_rng(0))
    column = FEATURES[feat].column
    assert [f for f, e in FEATURES.items() if e.column == column] == [feat]
    arrays = batch_arrays(encode_all(tiny_corpus["test"][:4], tiny_corpus,
                                     cfg.text_max_len, cfg.loc_max_len))
    fused = []
    fuse = model.fusion.fuse

    def spy(vectors, **kwargs):
        fused.append(fuse(vectors, **kwargs))
        return fused[-1]

    monkeypatch.setattr(model.fusion, "fuse", spy)
    # the batch holds only the table's column, so a wrong column is a KeyError
    model.forward({column: arrays[column], "label_id": arrays["label_id"]})
    assert fused[0].shape == (4, width) == (4, model.fusion.input_dim)


@pytest.mark.parametrize("field", ["text_max_len", "text_emb_size",
                                   "text_window", "text_attn_size",
                                   "loc_span", "penultimate_dim",
                                   "account_bins"])
def test_sizes_must_be_positive(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        ModelConfig(**{field: 0})


@pytest.fixture
def checkpoint(tiny_corpus, tmp_path):
    """Path of a saved synthetic-scale checkpoint."""
    model = GeoModel(synthetic_model_config(), len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(1))
    path = str(tmp_path / "model.gtpa")
    save_checkpoint(path, model)
    return path


def _edit_sidecar(path, edit):
    meta = json.loads(Path(f"{path}.json").read_text())
    edit(meta)
    Path(f"{path}.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("edit, fault", [
    (lambda m: m["config"].update(acount_bins=6),
     "unexpected keyword argument 'acount_bins'"),
    (lambda m: m["config"].update(account_bins=0),
     "account_bins must be >= 1, got 0"),
    (lambda m: m.pop("n_classes"), "missing key 'n_classes'"),
    (lambda m: m.update(meta_version=7), "unsupported"),
])
def test_bad_sidecar_is_reported_with_its_path(checkpoint, edit, fault):
    _edit_sidecar(checkpoint, edit)
    with pytest.raises(ValueError) as err:
        load_checkpoint(checkpoint)
    assert str(err.value).startswith(f"{checkpoint}.json: ")
    assert fault in str(err.value)


def test_sidecar_not_matching_archive_names_both(checkpoint):
    _edit_sidecar(checkpoint, lambda m: m.update(n_classes=m["n_classes"] + 1))
    with pytest.raises(ValueError, match=re.escape(
            f"{checkpoint} does not match {checkpoint}.json: checkpoint "
            "parameter")):
        load_checkpoint(checkpoint)


def test_non_utf8_tensor_name_is_a_missing_parameter(checkpoint):
    raw = bytearray(Path(checkpoint).read_bytes())
    raw[16] = 0xFF  # first byte of the first tensor name
    Path(checkpoint).write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(
            f"{checkpoint} does not match {checkpoint}.json: checkpoint "
            "missing parameter")):
        load_checkpoint(checkpoint)


def test_float64_archive_loads_rounded_to_nearest(checkpoint):
    rng = np.random.default_rng(0)
    # float64 values between float32 neighbours, as older checkpoints hold
    wide = {name: values + rng.uniform(-1e-3, 1e-3, values.shape)
            for name, values in load_archive(checkpoint).items()}
    save_archive(checkpoint, wide)
    restored, _ = load_checkpoint(checkpoint)
    inexact = 0
    for name, values in wide.items():
        got = restored.params[name].data
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, values.astype(np.float32))
        ulp = np.spacing(np.abs(got)).astype(np.float64)
        assert (np.abs(got - values) <= ulp / 2).all()
        inexact += int((got != values).sum())
    assert inexact > 0


@pytest.mark.parametrize("value", [1e39, np.nan])
def test_value_outside_float32_range_is_rejected(checkpoint, value):
    arrays = load_archive(checkpoint)
    arrays["text.Wg"][1, 2] = value
    save_archive(checkpoint, arrays)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{checkpoint}: parameter 'text.Wg' has values outside the "
            "float32 range") + "$"):
        load_checkpoint(checkpoint)


def _dtypes(arrays):
    return Counter(str(a.dtype) for a in arrays)


def _tweet_user_model(corpus, config, seed):
    return GeoModel(config, len(corpus["char_vocab"]), len(corpus["tz_vocab"]),
                    len(corpus["label_vocab"]), np.random.default_rng(seed))


def _batch(corpus, config, n):
    return batch_arrays(encode_all(corpus["train"][:n], corpus,
                                   config.text_max_len, config.loc_max_len))


def test_training_step_and_eval_forward_are_float32(tiny_corpus):
    cfg = synthetic_model_config(dropout=0.2, noise_sigma=0.1,
                                 extrema_alpha=0.1)
    model = _tweet_user_model(tiny_corpus, cfg, 0)
    batch = _batch(tiny_corpus, cfg, 16)
    loss, _, _ = model.loss(batch, train=True, rng=np.random.default_rng(0))
    nodes = graph_nodes(loss)
    seen = []  # each gradient a rule receives, then each one it returns
    for node in nodes:
        if node._backward is not None:
            def recorded(g, rule=node._backward):
                grads = rule(g)
                seen.extend([g, *(pg for pg in grads if pg is not None)])
                return grads
            node._backward = recorded
    loss.backward()
    params = list(model.params.values())
    grads = [p.grad for p in params]
    optimizer = Adam(model.params)
    optimizer.step()
    moments = [*optimizer.first_moment.values(),
               *optimizer.second_moment.values()]
    rules = sum(node._backward is not None for node in nodes)
    assert rules > 50 and len(seen) > 2 * rules
    for arrays in ([n.data for n in nodes], seen, [p.data for p in params],
                   grads, moments):
        assert _dtypes(arrays) == {"float32": len(arrays)}
    probs, r, attention = model.forward(batch, train=False)
    nodes = graph_nodes(probs) + graph_nodes(r)
    assert _dtypes([n.data for n in nodes] + [attention]) == {
        "float32": len(nodes) + 1}


@pytest.mark.parametrize("overrides", [
    {}, {"noise_sigma": 0.1, "extrema_alpha": 0.1}], ids=["plain", "hashing"])
def test_float32_losses_agree_with_float64(tiny_corpus, overrides,
                                           monkeypatch):
    cfg = synthetic_model_config(**overrides)
    batch = _batch(tiny_corpus, cfg, 64)

    def losses(dtype):
        monkeypatch.setattr(model_mod, "COMPUTE_DTYPE", dtype)
        model = _tweet_user_model(tiny_corpus, cfg, 3)
        assert model.params["text.Wg"].data.dtype == dtype
        optimizer = Adam(model.params)
        rng = np.random.default_rng(3)
        out = []
        for _ in range(5):
            loss, _, _ = model.loss(batch, train=True, rng=rng)
            assert loss.data.dtype == dtype
            out.append(float(loss.data))
            loss.backward()
            optimizer.step()
            model.clamp()
        return out

    np.testing.assert_allclose(losses(np.float32), losses(np.float64),
                               rtol=1e-4)
