import json
import re
from pathlib import Path

import numpy as np
import pytest

from geotweet.model import (FEATURES, GeoModel, ModelConfig, batch_arrays,
                            load_checkpoint, save_checkpoint)
from geotweet.trainer import synthetic_model_config

from conftest import encode_all


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
