import json
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import geotweet.model as model_mod
from geotweet.archive import load_archive, save_archive
from geotweet.model import (FEATURES, GeoModel, ModelConfig, load_checkpoint,
                            save_checkpoint)
from geotweet.optim import Adam
from geotweet.text_net import TextNetwork
from geotweet.trainer import synthetic_model_config

from conftest import encode_all, graph_nodes, head, op_counts


def _message_only(**overrides):
    """The message-only feature set's config under ``overrides``."""
    removed, settings = model_mod.FEATURE_SETS["message-only"]
    return ModelConfig(removed_features=removed, **{**settings, **overrides})


def test_message_only_uses_wider_text_output():
    cfg = _message_only()
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


@pytest.mark.parametrize("removed", [("bogus",), ("location", "location")])
def test_removed_feature_must_exist(removed):
    with pytest.raises(ValueError, match="not in the model"):
        ModelConfig(removed_features=removed)


def test_removing_every_feature_is_rejected_naming_them():
    removed = (*model_mod.MESSAGE_ONLY_REMOVED, "text")
    with pytest.raises(ValueError, match=re.escape(
            "model has no active features: removed " + ", ".join(removed))):
        ModelConfig(removed_features=removed)


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
    batch = encode_all(tiny_corpus["test"][:4], tiny_corpus, cfg)
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


def test_infer_equals_one_eval_forward_per_batch(tiny_corpus, monkeypatch):
    cfg = synthetic_model_config()
    n = model_mod.EVAL_BATCH_SIZE + 1  # one full batch and a remainder of 1
    records = tiny_corpus["train"] + tiny_corpus["dev"] + tiny_corpus["test"]
    table = head(encode_all(records, tiny_corpus, cfg), n)
    model = GeoModel(cfg, len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(2))
    expected = [model.forward(batch, train=False) for batch in (
        head(table, n - 1), {k: v[n - 1:] for k, v in table.items()})]

    # each batch's graph is gone before the next forward starts: infer keeps
    # the data of logits and r, and no array of any other node
    forward, held, calls = model.forward, [], []

    def spy(batch, **kwargs):
        assert all(ref() is None for ref in held)
        out = forward(batch, **kwargs)
        calls.append(len(batch["label_id"]))
        held.extend(weakref.ref(node.data) for node in graph_nodes(out[0])
                    if node._backward is not None and node not in out[:2])
        return out

    monkeypatch.setattr(model, "forward", spy)
    logits, r, attention = model.infer(table)
    assert calls == [n - 1, 1] and held
    for got, k in ((logits, 0), (r, 1)):
        np.testing.assert_array_equal(
            got, np.concatenate([out[k].data for out in expected]))
    np.testing.assert_array_equal(
        attention, np.concatenate([out[2] for out in expected]))
    assert logits.shape == (n, model.n_classes) and logits.dtype == np.float32

    no_text = GeoModel(synthetic_model_config(removed_features=("text",)),
                       len(tiny_corpus["char_vocab"]),
                       len(tiny_corpus["tz_vocab"]),
                       len(tiny_corpus["label_vocab"]), np.random.default_rng(2))
    assert no_text.infer(head(table, 3))[2] is None


def test_infer_of_a_zero_row_table_names_the_fault(tiny_corpus):
    cfg = synthetic_model_config()
    model = GeoModel(cfg, len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(2))
    empty = head(encode_all(tiny_corpus["test"], tiny_corpus, cfg), 0)
    with pytest.raises(ValueError, match="^infer: the column table has no rows$"):
        model.infer(empty)


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
    arrays = encode_all(tiny_corpus["test"][:4], tiny_corpus, cfg)
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
                                   "text_window", "loc_span", "penultimate_dim",
                                   "account_bins"])
def test_sizes_must_be_positive(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        ModelConfig(**{field: 0})


def test_settings_take_numpy_numbers_but_no_bool():
    cfg = ModelConfig(text_max_len=np.int64(40), text_window=np.int32(5),
                      dropout=np.float32(0.25), noise_sigma=1)
    assert (cfg.text_max_len, cfg.dropout, cfg.noise_sigma) == (40, 0.25, 1)
    with pytest.raises(ValueError, match="loc_span must be an integer, got 3.0"):
        ModelConfig(loc_span=3.0)
    with pytest.raises(ValueError, match="noise_sigma must be a number, got False"):
        ModelConfig(noise_sigma=False)


def test_vocabulary_sizes_take_numpy_integers_but_no_bool_or_zero():
    cfg = synthetic_model_config()
    model = GeoModel(cfg, np.int64(9), np.int32(4), 3, np.random.default_rng(0))
    assert (model.char_vocab_size, model.n_timezones, model.n_classes) == (9, 4, 3)
    for sizes, fault in (((9, 4, True), "n_classes must be an integer, got True"),
                         ((9.0, 4, 3), "char_vocab_size must be an integer, got 9.0"),
                         ((9, 0, 3), "n_timezones must be >= 1, got 0")):
        with pytest.raises(ValueError, match=re.escape(fault)):
            GeoModel(cfg, *sizes, np.random.default_rng(0))


def test_window_longer_than_its_sequence_is_rejected_only_when_built():
    with pytest.raises(ValueError, match="loc_span 21 is longer than loc_max_len 20"):
        ModelConfig(loc_span=21)
    with pytest.raises(ValueError,
                       match="text_window 301 is longer than text_max_len 300"):
        _message_only(text_window=301)
    # without the location net, its span is never used
    ModelConfig(loc_span=21, removed_features=("location",))
    _message_only(loc_span=21)


def _save_checkpoint(tiny_corpus, path, config):
    model = GeoModel(config, len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]),
                     len(tiny_corpus["label_vocab"]), np.random.default_rng(1))
    save_checkpoint(path, model)
    return path


@pytest.fixture
def checkpoint(tiny_corpus, tmp_path):
    """Path of a saved synthetic-scale checkpoint."""
    return _save_checkpoint(tiny_corpus, str(tmp_path / "model.gtpa"),
                            synthetic_model_config())


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
    (lambda m: m["config"].update(feature_set="bogus"),
     "unknown feature set 'bogus'"),
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


def test_sidecar_with_a_null_text_attn_size_still_loads(checkpoint):
    # sidecars written while ModelConfig had the field hold it as null
    expected, _ = load_checkpoint(checkpoint)
    _edit_sidecar(checkpoint, lambda m: m["config"].update(text_attn_size=None))
    restored, _ = load_checkpoint(checkpoint)
    assert restored.config == expected.config
    for name, p in expected.params.items():
        np.testing.assert_array_equal(restored.params[name].data, p.data)


def test_a_meta_version_1_checkpoint_reads_every_position(checkpoint, tiny_corpus,
                                                          monkeypatch):
    # models of version 1 were trained to read all T positions of each row
    assert json.loads(Path(f"{checkpoint}.json").read_text())["meta_version"] == 2
    table = encode_all(tiny_corpus["test"][:16], tiny_corpus,
                       synthetic_model_config())
    model, _ = load_checkpoint(checkpoint)
    _edit_sidecar(checkpoint, lambda m: m.update(meta_version=1))
    old, _ = load_checkpoint(checkpoint)
    got = old.infer(table)
    text_forward = TextNetwork.forward
    with monkeypatch.context() as m:
        m.setattr(TextNetwork, "forward",
                  lambda net, text_ids, lengths=None: text_forward(net, text_ids))
        full_length = model.infer(table)
    for a, b in zip(got, full_length):
        np.testing.assert_array_equal(a, b)
    # the current version reads each row only up to its length
    assert not np.array_equal(model.infer(table)[0], full_length[0])


def test_rows_predict_alike_however_their_batch_is_cut(tiny_corpus, monkeypatch):
    cfg = synthetic_model_config(text_max_len=60)
    T, P = cfg.text_max_len, cfg.text_window
    model = _tweet_user_model(tiny_corpus, cfg, 0)
    table = encode_all(tiny_corpus["test"][:16], tiny_corpus, cfg)
    lengths = model.text_lengths(table["text_ids"])
    # the table is cut; one more row of T characters leaves it whole
    assert lengths.max() + P - 1 < T
    whole = {k: np.concatenate([v, v[:1]]) for k, v in table.items()}
    whole["text_ids"][-1] = whole["text_ids"][0, 0]
    widths = []
    char_vectors = TextNetwork.char_vectors

    def spy(net, text_ids):
        widths.append(np.shape(text_ids)[1])
        return char_vectors(net, text_ids)

    monkeypatch.setattr(TextNetwork, "char_vectors", spy)
    expected = model.forward(whole)[0].data[:-1]
    runs = [model.forward(table)[0].data, np.concatenate(
        [model.forward({k: v[i:i + 1] for k, v in table.items()})[0].data
         for i in range(16)])]
    assert widths == [T, lengths.max() + P - 1, *(lengths + P - 1)]
    for logits in runs:
        np.testing.assert_array_equal(logits.argmax(axis=1), expected.argmax(axis=1))
        np.testing.assert_allclose(logits, expected, rtol=1e-5,
                                   atol=1e-5 * np.abs(expected).max())


@pytest.mark.parametrize("removed, old_form", [
    ((), {"feature_set": "tweet-user"}),
    (model_mod.MESSAGE_ONLY_REMOVED,
     {"feature_set": "message-only", "removed_features": []}),
])
def test_sidecar_naming_a_feature_set_still_loads(tiny_corpus, tmp_path,
                                                  removed, old_form):
    # sidecars written while ModelConfig had a feature_set field
    path = _save_checkpoint(tiny_corpus, str(tmp_path / "model.gtpa"),
                            synthetic_model_config(removed_features=removed))
    expected, _ = load_checkpoint(path)
    _edit_sidecar(path, lambda m: m["config"].update(old_form))
    restored, _ = load_checkpoint(path)
    assert restored.config == expected.config
    assert restored.features == expected.features
    for name, p in expected.params.items():
        np.testing.assert_array_equal(restored.params[name].data, p.data)


def test_non_utf8_tensor_name_is_a_missing_parameter(checkpoint):
    raw = bytearray(Path(checkpoint).read_bytes())
    raw[16] = 0xFF  # first byte of the first tensor name
    Path(checkpoint).write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(
            f"{checkpoint} does not match {checkpoint}.json: checkpoint "
            "missing parameter")):
        load_checkpoint(checkpoint)


def test_tensor_the_model_lacks_is_rejected(checkpoint):
    arrays = load_archive(checkpoint)
    save_archive(checkpoint, {**arrays, "bogus.W": np.ones(2)})
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{checkpoint} does not match {checkpoint}.json: checkpoint "
            "parameter 'bogus.W' is not in the model") + "$"):
        load_checkpoint(checkpoint)


def test_extra_tensor_leaves_every_parameter_unwritten(tiny_corpus):
    model = GeoModel(synthetic_model_config(), len(tiny_corpus["char_vocab"]),
                     len(tiny_corpus["tz_vocab"]), len(tiny_corpus["label_vocab"]),
                     np.random.default_rng(0))
    before = {name: values.copy() for name, values in model.param_arrays().items()}
    arrays = {name: values + 1 for name, values in before.items()}
    with pytest.raises(ValueError, match="'bogus.W' is not in the model"):
        model.load_param_arrays({**arrays, "bogus.W": np.ones(2)})
    for name, values in model.param_arrays().items():
        np.testing.assert_array_equal(values, before[name])


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
    return encode_all(corpus["train"][:n], corpus, config)


def test_training_step_and_eval_forward_are_float32(tiny_corpus):
    cfg = synthetic_model_config(dropout=0.2, noise_sigma=0.1,
                                 extrema_alpha=0.1)
    model = _tweet_user_model(tiny_corpus, cfg, 0)
    batch = _batch(tiny_corpus, cfg, 16)
    loss, _, _ = model.loss(batch, train=True, rng=np.random.default_rng(0))
    nodes = graph_nodes(loss)
    step = op_counts(nodes)
    assert step["window_max"] == step["span_conv_max"] == 1, step
    assert not {"take", "reshape", "relu"} & set(step), step
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
    # the synthetic step's 18 nodes, plus noise, the extrema penalty and
    # the add of the two losses
    assert rules == 21 and len(seen) > 2 * rules
    for arrays in ([n.data for n in nodes], seen, [p.data for p in params],
                   grads, moments):
        assert _dtypes(arrays) == {"float32": len(arrays)}
    logits, r, attention = model.forward(batch, train=False)
    nodes = graph_nodes(logits) + graph_nodes(r)
    assert _dtypes([n.data for n in nodes] + [attention]) == {
        "float32": len(nodes) + 1}


def test_training_step_graph_has_one_op_per_job(tiny_corpus, monkeypatch):
    cfg = synthetic_model_config()
    model = _tweet_user_model(tiny_corpus, cfg, 0)
    text_outputs = []
    text_forward = TextNetwork.forward

    def spy(net, text_ids, lengths=None):
        text_outputs.append(text_forward(net, text_ids, lengths))
        return text_outputs[-1]

    monkeypatch.setattr(TextNetwork, "forward", spy)
    loss, _, _ = model.loss(_batch(tiny_corpus, cfg, 16), train=True,
                            rng=np.random.default_rng(0))
    step = op_counts(graph_nodes(loss))
    (features, _), = text_outputs
    text = op_counts(graph_nodes(features))
    # the text branch feeds its bi-LSTM states straight into one projection
    # op, and both read the char table themselves
    assert text["take"] == text["concat"] == text["embedding"] == 0, text
    assert text["bilstm_sequence"] == text["context_projection"] == 1
    # one op each for the attention, the three RBF nets and the loss
    assert step["attention_pool"] == text["attention_pool"] == 1
    assert step["rbf"] == 3 and step["cross_entropy"] == 1
    # the text net pools its windows with one op, the location net convolves
    # and pools with another
    assert "amax" not in step and step["window_max"] == text["window_max"] == 1
    assert step["span_conv_max"] == 1
    # the ops these replaced are test oracles now
    removed = {"sub", "mul", "div", "exp", "absolute", "softmax", "transpose",
               "tsum", "tmean", "take", "reshape", "relu"}
    assert not removed & set(step), step
    assert sum(step.values()) == 18 and sum(text.values()) == 4, step
    print(f"\ntraining step graph: {sum(step.values())} nodes "
          f"({sum(text.values())} in the text branch)")


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
