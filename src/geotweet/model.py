"""Full geolocation model: feature subnetworks plus fusion classifier."""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .archive import load_archive, save_archive
from .corpus import EncodedExample
from .fusion import FusionClassifier, extrema_loss
from .loc_net import LocConvNetwork, TimezoneEmbedding
from .rbf_net import RbfNetwork
from .text_net import TextNetwork


class Feature(NamedTuple):
    """One input feature: the batch column its network reads, and
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
                    cfg.text_window, cfg.text_attn_size), cfg.text_out_size)),
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

MESSAGE_ONLY = "message-only"
TWEET_USER = "tweet-user"

# The dtype GeoModel builds its parameters in and runs forward, loss and
# backward in. The engine's own default stays float64; checkpoints store
# float64, which holds every float32 exactly.
COMPUTE_DTYPE = np.float32

CHECKPOINT_META_VERSION = 1
# GeoModel attributes and checkpoint keys sized by the three vocabularies
VOCAB_SIZES = ("char_vocab_size", "n_timezones", "n_classes")


@dataclass
class ModelConfig:
    """Hyper-parameters; defaults follow the tweet+user setting."""

    feature_set: str = TWEET_USER
    removed_features: tuple = ()
    text_max_len: int = 300
    text_emb_size: int = 200
    text_window: int = 10
    text_out_size: int = 400
    text_attn_size: int | None = None
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
        if self.feature_set not in (MESSAGE_ONLY, TWEET_USER):
            raise ValueError(f"unknown feature set {self.feature_set!r}")
        for f in fields(self):  # every int field is a size
            size = getattr(self, f.name)
            if f.type.startswith("int") and size is not None and size < 1:
                raise ValueError(f"{f.name} must be >= 1, got {size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        self.removed_features = tuple(self.removed_features)
        for f in self.removed_features:
            if f not in self.active_features(ignore_removed=True):
                raise ValueError(f"cannot remove feature {f!r}: not in the model")

    def active_features(self, ignore_removed=False):
        feats = tuple(FEATURES) if self.feature_set == TWEET_USER else ("text",)
        if ignore_removed:
            return feats
        return tuple(f for f in feats if f not in self.removed_features)

    @classmethod
    def message_only_defaults(cls, **overrides):
        overrides.setdefault("text_out_size", 600)
        return cls(feature_set=MESSAGE_ONLY, **overrides)


def _in_compute_dtype(method):
    """Run ``method`` with the engine computing in COMPUTE_DTYPE."""
    @functools.wraps(method)
    def run(*args, **kwargs):
        with ad.compute_dtype(COMPUTE_DTYPE):
            return method(*args, **kwargs)
    return run


class GeoModel:
    """Assembles the active subnetworks and the fusion classifier; its
    parameters and every node of its graphs are COMPUTE_DTYPE arrays."""

    @_in_compute_dtype
    def __init__(self, config, char_vocab_size, n_timezones, n_classes, rng):
        self.config = config
        self.char_vocab_size = char_vocab_size
        self.n_timezones = n_timezones
        self.n_classes = n_classes
        self.features = config.active_features()
        if not self.features:
            raise ValueError("model has no active features")
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

    @_in_compute_dtype
    def forward(self, batch, train=False, rng=None):
        """Returns (probs, r, attention) for a batch-array dict."""
        vectors = []
        attention = None
        for feat in self.features:
            vec = self.nets[feat].forward(batch[FEATURES[feat].column])
            if feat == "text":
                vec, attn = vec
                attention = attn.data
            vectors.append(vec)
        cfg = self.config
        fused = self.fusion.fuse(vectors, noise_sigma=cfg.noise_sigma,
                                 dropout_keep=1.0 - cfg.dropout,
                                 train=train, rng=rng)
        r = self.fusion.penultimate(fused)
        probs = self.fusion.classify(r)
        return probs, r, attention

    @_in_compute_dtype
    def loss(self, batch, train=False, rng=None):
        probs, r, _ = self.forward(batch, train=train, rng=rng)
        total = ad.cross_entropy(probs, batch["label_id"])
        if self.config.extrema_alpha > 0.0:
            total = ad.add(total, extrema_loss(r, self.config.extrema_alpha))
        return total, probs, r

    def clamp(self):
        """Post-step parameter constraints (RBF width floors)."""
        for net in self.nets.values():
            if isinstance(net, RbfNetwork):
                net.clamp_sigma()

    def param_arrays(self):
        return {k: p.data for k, p in self.params.items()}

    def load_param_arrays(self, arrays):
        for name, p in self.params.items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if arrays[name].shape != p.data.shape:
                raise ValueError(
                    f"checkpoint parameter {name!r} has shape "
                    f"{arrays[name].shape}, model expects {p.data.shape}")
            p.data[...] = arrays[name]


EVAL_BATCH_SIZE = 512


def batch_arrays(examples):
    """Column-major arrays of EncodedExamples, one per field: float64 or int64."""
    return {f.name: np.array([getattr(e, f.name) for e in examples],
                             dtype=np.float64 if f.type == "float" else np.int64)
            for f in fields(EncodedExample)}


def as_arrays(examples):
    """Batch arrays for a list of EncodedExamples; a dict passes through."""
    return examples if isinstance(examples, dict) else batch_arrays(examples)


def iter_batches(arrays, batch_size, order=None):
    """Batch-array dicts of up to ``batch_size`` rows, taken in ``order``
    (default: row order); the last batch keeps the remainder."""
    for start in range(0, len(arrays["label_id"]), batch_size):
        rows = (slice(start, start + batch_size) if order is None
                else order[start:start + batch_size])
        yield {k: v[rows] for k, v in arrays.items()}


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
        if meta["meta_version"] != CHECKPOINT_META_VERSION:
            raise ValueError("unsupported checkpoint metadata version")
        model = GeoModel(ModelConfig(**meta["config"]),
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
    return model, meta
