"""Full geolocation model: feature subnetworks plus fusion classifier."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .archive import load_archive, save_archive
from .fusion import FusionClassifier, extrema_loss
from .loc_net import LocConvNetwork, TimezoneEmbedding
from .rbf_net import RbfNetwork
from .text_net import TextNetwork, text_lengths


class Feature(NamedTuple):
    """One input feature: the table column its network reads, and
    ``build(config, char_vocab_size, n_timezones, rng) -> (net, width)``."""

    column: str
    build: Callable
    rbf: bool = False  # an RbfNetwork over a [0, 1] time value


def _rbf_feature(column, bins_field, prefix):
    def build(cfg, n_chars, n_timezones, rng):
        bins = getattr(cfg, bins_field)
        return RbfNetwork(bins, prefix), bins
    return Feature(column, build, rbf=True)


# Insertion order is the fusion order and the order parameters draw from rng.
FEATURES = {
    "text": Feature("text_ids", lambda cfg, n_chars, n_timezones, rng: (
        TextNetwork(rng, n_chars, cfg.text_emb_size, cfg.text_out_size,
                    cfg.text_window), cfg.text_out_size)),
    "tweet_time": _rbf_feature("tweet_time", "time_bins", "time"),
    "utc_offset": _rbf_feature("utc_offset", "offset_bins", "offset"),
    "timezone": Feature("timezone_id", lambda cfg, n_chars, n_timezones, rng: (
        TimezoneEmbedding(rng, n_timezones, cfg.timezone_emb_size),
        cfg.timezone_emb_size)),
    "location": Feature("location_ids", lambda cfg, n_chars, n_timezones, rng: (
        LocConvNetwork(rng, n_chars, cfg.loc_emb_size, cfg.loc_span,
                       cfg.loc_out_size), cfg.loc_out_size)),
    "account_time": _rbf_feature("account_time", "account_bins", "account"),
}

# --feature-set values: the features each removes and the settings it sets
TWEET_USER = "tweet-user"
MESSAGE_ONLY_REMOVED = tuple(f for f in FEATURES if f != "text")
FEATURE_SETS = {"message-only": (MESSAGE_ONLY_REMOVED, {"text_out_size": 600}),
                TWEET_USER: ((), {})}

# The dtype of GeoModel's parameters, and so the dtype its forward, loss
# and backward run in. The engine's own default stays float64; checkpoints
# store float64, which holds every float32 exactly.
COMPUTE_DTYPE = np.float32

# rows per eval-mode forward in GeoModel.infer
EVAL_BATCH_SIZE = 512

# 2: the text network reads each row to its length; 1 read all T positions
CHECKPOINT_META_VERSION = 2
# ModelConfig field types: the values each takes, never a bool, and their name
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}
# GeoModel attributes and checkpoint keys sized by the three vocabularies
VOCAB_SIZES = ("char_vocab_size", "n_timezones", "n_classes")


def _check_setting(name, value, kind):
    """Raise unless ``value`` is of ``_KINDS[kind]``; an int is a size."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind][0]):
        raise ValueError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")
    if kind == "int" and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class ModelConfig:
    """Hyper-parameters; defaults follow the tweet+user setting."""

    removed_features: tuple = ()
    text_max_len: int = 300
    text_emb_size: int = 200
    text_window: int = 10
    text_out_size: int = 400
    time_bins: int = 50
    offset_bins: int = 50
    timezone_emb_size: int = 50
    loc_max_len: int = 20
    loc_emb_size: int = 300
    loc_span: int = 3
    loc_out_size: int = 300
    penultimate_dim: int = 400
    account_bins: int = 10
    noise_sigma: float = 0.0
    extrema_alpha: float = 0.0
    dropout: float = 0.2

    def __post_init__(self):
        for f in fields(self):
            if f.type in _KINDS:
                _check_setting(f.name, getattr(self, f.name), f.type)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("noise_sigma", "extrema_alpha"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if isinstance(self.removed_features, str):
            raise ValueError("removed_features must be a list of feature "
                             f"names, got {self.removed_features!r}")
        self.removed_features = tuple(self.removed_features)
        for f in self.removed_features:
            if f not in FEATURES or self.removed_features.count(f) > 1:
                raise ValueError(f"cannot remove feature {f!r}: not in the model")
        if not self.active_features():
            raise ValueError("model has no active features: removed "
                             + ", ".join(self.removed_features))
        for feat, span, length in (("text", "text_window", "text_max_len"),
                                   ("location", "loc_span", "loc_max_len")):
            if feat in self.active_features() and (
                    getattr(self, span) > getattr(self, length)):
                raise ValueError(f"{span} {getattr(self, span)} is longer than "
                                 f"{length} {getattr(self, length)}")

    def active_features(self):
        return tuple(f for f in FEATURES if f not in self.removed_features)


class GeoModel:
    """Assembles the active subnetworks and the fusion classifier; its
    parameters, and so every node of its graphs, are COMPUTE_DTYPE arrays."""

    def __init__(self, config, char_vocab_size, n_timezones, n_classes, rng):
        self.config = config
        for key, size in zip(VOCAB_SIZES, (char_vocab_size, n_timezones, n_classes)):
            _check_setting(key, size, "int")
            setattr(self, key, size)
        self.features = config.active_features()
        self.nets = {}
        self.params = {}
        dims = []
        for feat in self.features:
            net, dim = FEATURES[feat].build(config, char_vocab_size,
                                            n_timezones, rng)
            self.nets[feat] = net
            self.params.update(net.params)
            dims.append(dim)
        self.fusion = FusionClassifier(rng, sum(dims), config.penultimate_dim,
                                       n_classes)
        self.params.update(self.fusion.params)
        for p in self.params.values():  # drawn in float64, rounded once
            p.data = p.data.astype(COMPUTE_DTYPE)
        # load_checkpoint clears it for a model of meta_version 1
        self.length_aware = True

    def text_lengths(self, text_ids):
        """Each row's length that the text network reads ``text_ids`` to:
        all T positions for a model of meta_version 1, which cuts nothing
        and masks nothing."""
        text_ids = np.asarray(text_ids)
        if not self.length_aware:
            return np.full(len(text_ids), text_ids.shape[1])
        return text_lengths(text_ids)

    def forward(self, batch, train=False, rng=None):
        """Returns (logits, r, attention) for the rows of a column table: the
        class logits, the penultimate layer and the text attention weights."""
        vectors = []
        attention = None
        for feat in self.features:
            column = batch[FEATURES[feat].column]
            if feat == "text":
                vec, attn = self.nets[feat].forward(column, self.text_lengths(column))
                attention = attn.data
            else:
                vec = self.nets[feat].forward(column)
            vectors.append(vec)
        cfg = self.config
        fused = self.fusion.fuse(vectors, noise_sigma=cfg.noise_sigma,
                                 dropout_keep=1.0 - cfg.dropout,
                                 train=train, rng=rng)
        r = self.fusion.penultimate(fused)
        return self.fusion.classify(r), r, attention

    def infer(self, columns):
        """(logits, r, attention) arrays of eval-mode forwards over the rows
        of a column table of at least one row, EVAL_BATCH_SIZE rows at a
        time; attention is None for a model without text."""
        if not len(columns["label_id"]):
            raise ValueError("infer: the column table has no rows")
        parts = []
        for batch in iter_batches(columns, EVAL_BATCH_SIZE):
            logits, r, attention = self.forward(batch, train=False)
            parts.append((logits.data, r.data, attention))
            del logits, r  # this batch's graph goes before the next forward
        logits, r, attention = zip(*parts)
        return (np.concatenate(logits), np.concatenate(r),
                None if attention[0] is None else np.concatenate(attention))

    def loss(self, batch, train=False, rng=None):
        logits, r, _ = self.forward(batch, train=train, rng=rng)
        total = ad.cross_entropy(logits, batch["label_id"])
        if self.config.extrema_alpha > 0.0:
            total = ad.add(total, extrema_loss(r, self.config.extrema_alpha))
        return total, logits, r

    def clamp(self):
        """Post-step parameter constraints (RBF width floors)."""
        for net in self.nets.values():
            if isinstance(net, RbfNetwork):
                net.clamp_sigma()

    def param_arrays(self):
        return {k: p.data for k, p in self.params.items()}

    def load_param_arrays(self, arrays):
        """Copy in exactly this model's parameters, all checked before any is written."""
        for name in (*self.params, *arrays):  # a missing name before an extra one
            if name not in arrays:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if name not in self.params:
                raise ValueError(f"checkpoint parameter {name!r} is not in the model")
            if arrays[name].shape != self.params[name].data.shape:
                raise ValueError(f"checkpoint parameter {name!r} has shape {arrays[name].shape}, "
                                 f"model expects {self.params[name].data.shape}")
        for name, p in self.params.items():
            p.data[...] = arrays[name]


def iter_batches(columns, batch_size, order=None):
    """Column tables of up to ``batch_size`` rows, taken in ``order``
    (default: row order); the last batch keeps the remainder."""
    for start in range(0, len(columns["label_id"]), batch_size):
        rows = (slice(start, start + batch_size) if order is None
                else order[start:start + batch_size])
        yield {k: v[rows] for k, v in columns.items()}


def save_checkpoint(path, model, seed=None):
    save_archive(path, model.param_arrays())
    meta = {
        "meta_version": CHECKPOINT_META_VERSION,
        "config": asdict(model.config),
        "seed": seed,
        **{key: getattr(model, key) for key in VOCAB_SIZES},
    }
    with open(f"{path}.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path):
    """Rebuild a model from an archive plus its JSON sidecar."""
    meta_path = f"{path}.json"
    try:
        with open(meta_path, encoding="utf-8") as f:
            meta = json.load(f)
        if meta["meta_version"] not in (1, CHECKPOINT_META_VERSION):
            raise ValueError("unsupported checkpoint metadata version")
        config = dict(meta["config"])
        config.pop("text_attn_size", None)  # null in sidecars of older versions
        feature_set = config.pop("feature_set", TWEET_USER)  # older sidecars too
        if feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {feature_set!r}")
        config["removed_features"] = (FEATURE_SETS[feature_set][0]
                                      or config.get("removed_features", ()))
        model = GeoModel(ModelConfig(**config),
                         *(meta[key] for key in VOCAB_SIZES),
                         np.random.default_rng(0))  # weights loaded below
    except KeyError as e:
        raise ValueError(f"{meta_path}: missing key {e}") from None
    except (ValueError, TypeError, OverflowError) as e:
        raise ValueError(f"{meta_path}: {e}") from None
    arrays = load_archive(path)
    for name, p in model.params.items():
        # checked before the cast, which would turn them into inf silently
        values = arrays.get(name)
        limit = np.finfo(p.data.dtype).max
        if values is not None and not (np.abs(values) <= limit).all():
            raise ValueError(f"{path}: parameter {name!r} has values outside "
                             f"the {p.data.dtype} range")
    try:
        model.load_param_arrays(arrays)
    except ValueError as e:
        raise ValueError(f"{path} does not match {meta_path}: {e}") from None
    model.length_aware = meta["meta_version"] != 1
    return model, meta
