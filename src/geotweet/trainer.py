"""Minibatch training with the epoch-revert rule, evaluation, ablation and
the synthetic corpus generator used for desk-scale verification."""

from __future__ import annotations

import json
import math
import string
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .corpus import TweetRecord, unseen_labels
from .fusion import predict_labels
from .model import ModelConfig, iter_batches
from .optim import Adam


@dataclass
class TrainConfig:
    batch_size: int = 512
    epochs: int = 10
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for name, bound in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be >= {bound}, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")


@dataclass
class TrainReport:
    dev_accuracy: list = field(default_factory=list)
    revert_epochs: list = field(default_factory=list)
    test_accuracy: float | None = None
    # records scored as wrong because the training split lacks their city
    dev_unseen_labels: int = 0
    test_unseen_labels: int | None = None
    wall_clock_seconds: float = 0.0
    stopped: str | None = None  # why training stopped early, if it did

    def to_text(self):
        lines = ["epoch\tdev_accuracy\treverted"]
        for i, acc in enumerate(self.dev_accuracy, start=1):
            lines.append(f"{i}\t{acc:.6f}\t{int(i in self.revert_epochs)}")
        if self.test_accuracy is not None:
            lines.append(f"test\t{self.test_accuracy:.6f}\t-")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(asdict(self), indent=2) + "\n"


class TrainingStopped(ValueError):
    """A non-finite loss or gradient stopped training; ``report`` holds the
    epochs completed before it, with ``stopped`` set to the message."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def evaluate_accuracy(model, columns):
    """Fraction of a column table's rows whose argmax prediction equals the
    label; a row of UNSEEN_LABEL, which no class has, counts as wrong."""
    labels = columns["label_id"]
    if not len(labels):
        raise ValueError("cannot evaluate on an empty set")
    correct = predict_labels(model.infer(columns)[0]) == labels
    return int(correct.sum()) / len(labels)


# numpy's overflow warnings would only repeat the non-finite check's error
@np.errstate(all="ignore")
def train(model, train_columns, dev_columns, config):
    """Train on a column table for exactly config.epochs epochs with the
    epoch-revert rule.

    After each epoch the model is scored on dev; if accuracy fell below the
    previously accepted epoch's, parameters and optimizer moments are
    restored from the last accepted snapshot. A non-finite loss or parameter
    gradient stops training with a TrainingStopped error naming the epoch
    and batch.
    """
    n = len(train_columns["label_id"])
    if not n or not len(dev_columns["label_id"]):
        raise ValueError("train and dev splits must be non-empty")
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.params, learning_rate=config.learning_rate)
    report = TrainReport(dev_unseen_labels=unseen_labels(dev_columns))
    best_accuracy = -1.0
    best = None

    def stop(message):
        report.stopped = message
        report.wall_clock_seconds = time.perf_counter() - start
        return TrainingStopped(message, report)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        batches = iter_batches(train_columns, config.batch_size, order)
        for number, batch in enumerate(batches, start=1):
            loss, _, _ = model.loss(batch, train=True, rng=rng)
            where = f"at epoch {epoch}, batch {number}"
            if not np.isfinite(loss.data):
                raise stop(f"non-finite loss {where}")
            loss.backward()
            for name, p in model.params.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise stop(f"non-finite gradient of {name} {where}")
            optimizer.step()
            model.clamp()
        accuracy = evaluate_accuracy(model, dev_columns)
        report.dev_accuracy.append(accuracy)
        if accuracy < best_accuracy:
            optimizer.restore(best)
            report.revert_epochs.append(epoch)
        else:
            best_accuracy = accuracy
            best = optimizer.snapshot()
    report.wall_clock_seconds = time.perf_counter() - start
    return report


def ablate(build_model, train_columns, dev_columns, test_columns,
           model_config, train_config, features=None):
    """Retrain once per removed feature on the column tables of the three
    splits; report accuracy deltas vs ``model_config``'s active features.

    ``build_model`` is a callable (ModelConfig, seed) -> GeoModel so the
    caller controls vocabulary sizes. Every run reuses the same seed.
    ``features`` restricts which features get ablated (default: all active).
    Every run's config is built, and so checked, before the baseline trains.
    """
    if features is None:
        features = model_config.active_features()
    configs = {feat: replace(model_config, removed_features=(
                   *model_config.removed_features, feat)) for feat in features}

    def run(cfg):
        model = build_model(cfg, train_config.seed)
        train(model, train_columns, dev_columns, train_config)
        return evaluate_accuracy(model, test_columns)

    baseline = run(model_config)
    return baseline, {feat: run(cfg) - baseline for feat, cfg in configs.items()}


# small hyper-parameters sized for the synthetic desk-scale corpus
SYNTHETIC_SCALE = dict(
    text_max_len=40, text_emb_size=16, text_window=5, text_out_size=32,
    time_bins=12, offset_bins=8, timezone_emb_size=8,
    loc_max_len=12, loc_emb_size=24, loc_span=3, loc_out_size=48,
    penultimate_dim=64, account_bins=6,
)


def synthetic_model_config(**overrides):
    """ModelConfig of SYNTHETIC_SCALE under ``overrides``."""
    return ModelConfig(**{**SYNTHETIC_SCALE, **overrides})


# --- synthetic corpus -------------------------------------------------------

_ALPHABET = string.ascii_lowercase
_EPOCH_DAY = datetime(2016, 1, 1, tzinfo=timezone.utc)


@dataclass
class SyntheticConfig:
    n_cities: int = 20
    n_train: int = 10000
    n_dev: int = 1000
    n_test: int = 1000
    seed: int = 0
    location_informative: bool = True
    time_informative: bool = True
    timezone_informative: bool = True
    text_informative: bool = False
    time_std_hours: float = 1.5

    def __post_init__(self):
        for name, bound in (("n_cities", 1), ("n_train", 1), ("n_dev", 1),
                            ("n_test", 1), ("seed", 0)):
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be >= {bound}, got {getattr(self, name)}")


def _random_token(rng, length=6):
    return "".join(rng.choice(list(_ALPHABET), size=length))


def _random_text(rng, token=None, lo=15, hi=40):
    n = int(rng.integers(lo, hi))
    chars = "".join(rng.choice(list(_ALPHABET + " "), size=n))
    if token is not None:
        pos = int(rng.integers(0, max(1, len(chars) - len(token))))
        chars = chars[:pos] + token + chars[pos + len(token):]
    return chars


def generate_synthetic(config):
    """Labeled TweetRecords whose labels are recoverable from planted signals.

    Each city gets a distinct location token, a time-of-day Gaussian and a
    preferred timezone name; knobs turn each signal on or off.
    """
    rng = np.random.default_rng(config.seed)
    cities = [f"city{i:02d}" for i in range(config.n_cities)]
    tokens = []
    seen = set()
    while len(tokens) < config.n_cities:
        t = _random_token(rng)
        if t not in seen:
            seen.add(t)
            tokens.append(t)
    tz_names = [f"Zone/{_random_token(rng, 5)}" for _ in range(config.n_cities)]
    time_means = [24.0 * i / config.n_cities for i in range(config.n_cities)]

    def make_record(city_id):
        if config.time_informative:
            hours = rng.normal(time_means[city_id], config.time_std_hours) % 24.0
        else:
            hours = rng.uniform(0.0, 24.0)
        created = _EPOCH_DAY + timedelta(hours=float(hours))
        if config.timezone_informative and rng.random() < 0.9:
            tz = tz_names[city_id]
        else:
            tz = tz_names[int(rng.integers(config.n_cities))]
        if config.location_informative:
            location = tokens[city_id] + " " + _random_token(rng, 3)
        else:
            location = _random_token(rng, 6)
        text_token = tokens[city_id] if config.text_informative else None
        return TweetRecord(
            text=_random_text(rng, token=text_token),
            created_at=created,
            utc_offset_seconds=int(rng.integers(-12, 15)) * 3600,
            timezone_name=tz,
            user_location=location,
            account_created_at=_EPOCH_DAY + timedelta(
                hours=float(rng.uniform(0.0, 24.0))),
            city_label=cities[city_id],
        )

    def split(n):
        return [make_record(int(rng.integers(config.n_cities))) for _ in range(n)]

    return split(config.n_train), split(config.n_dev), split(config.n_test)
