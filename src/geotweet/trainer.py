"""Minibatch training with the epoch-revert rule, evaluation, ablation and
the synthetic corpus generator used for desk-scale verification."""

from __future__ import annotations

import json
import string
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .corpus import TweetRecord
from .fusion import predict_labels
from .model import EVAL_BATCH_SIZE, ModelConfig, as_arrays, iter_batches
from .optim import Adam


@dataclass
class TrainConfig:
    batch_size: int = 512
    epochs: int = 10
    learning_rate: float = 0.001
    seed: int = 0


@dataclass
class TrainReport:
    dev_accuracy: list = field(default_factory=list)
    revert_epochs: list = field(default_factory=list)
    test_accuracy: float | None = None
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


def evaluate_accuracy(model, examples_or_arrays, unseen=0):
    """Fraction of examples whose argmax prediction equals the label;
    ``unseen`` more examples, whose labels the model has no class for,
    count as wrong."""
    arrays = as_arrays(examples_or_arrays)
    n = len(arrays["label_id"]) + unseen
    if n == 0:
        raise ValueError("cannot evaluate on an empty set")
    correct = 0
    for batch in iter_batches(arrays, EVAL_BATCH_SIZE):
        probs, _, _ = model.forward(batch, train=False)
        correct += int((predict_labels(probs.data) == batch["label_id"]).sum())
    return correct / n


# numpy's overflow warnings would only repeat the non-finite check's error
@np.errstate(all="ignore")
def train(model, train_examples, dev_examples, config):
    """Train for exactly config.epochs epochs with the epoch-revert rule.

    After each epoch the model is scored on dev; if accuracy fell below the
    previously accepted epoch's, parameters and optimizer moments are
    restored from the last accepted snapshot. A non-finite loss or
    parameter gradient stops training with a TrainingStopped error naming
    the epoch and batch.
    """
    if not train_examples or not dev_examples:
        raise ValueError("train and dev splits must be non-empty")
    if config.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {config.batch_size}")
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    train_arrays = as_arrays(train_examples)
    dev_arrays = as_arrays(dev_examples)
    n = len(train_arrays["label_id"])
    optimizer = Adam(model.params, learning_rate=config.learning_rate)
    report = TrainReport()
    best_accuracy = -1.0
    best_params = None
    best_opt = None

    def stop(message):
        report.stopped = message
        report.wall_clock_seconds = time.perf_counter() - start
        return TrainingStopped(message, report)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        batches = iter_batches(train_arrays, config.batch_size, order)
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
        accuracy = evaluate_accuracy(model, dev_arrays)
        report.dev_accuracy.append(accuracy)
        if accuracy < best_accuracy:
            model.load_param_arrays(best_params)
            optimizer.restore(best_opt)
            report.revert_epochs.append(epoch)
        else:
            best_accuracy = accuracy
            best_params = {k: v.copy() for k, v in model.param_arrays().items()}
            best_opt = optimizer.snapshot()
    report.wall_clock_seconds = time.perf_counter() - start
    return report


def ablate(build_model, train_examples, dev_examples, test_examples,
           model_config, train_config, features=None):
    """Retrain once per removed feature; report accuracy deltas vs all features.

    ``build_model`` is a callable (ModelConfig, seed) -> GeoModel so the
    caller controls vocabulary sizes. Every run reuses the same seed.
    ``features`` restricts which features get ablated (default: all active).
    """
    if model_config.feature_set != "tweet-user":
        raise ValueError("ablation requires the tweet-user feature set")
    active = model_config.active_features()
    if features is None:
        features = active
    for feat in features:
        if feat not in active:
            raise ValueError(f"cannot ablate feature {feat!r}: not in the model")

    def run(cfg):
        model = build_model(cfg, train_config.seed)
        train(model, train_examples, dev_examples, train_config)
        return evaluate_accuracy(model, test_examples)

    baseline = run(model_config)
    deltas = {}
    for feat in features:
        cfg = replace(model_config, removed_features=(feat,))
        deltas[feat] = run(cfg) - baseline
    return baseline, deltas


def synthetic_model_config(**overrides):
    """Small hyper-parameters sized for the synthetic desk-scale corpus."""
    defaults = dict(
        text_max_len=40, text_emb_size=16, text_window=5, text_out_size=32,
        time_bins=12, offset_bins=8, timezone_emb_size=8,
        loc_max_len=12, loc_emb_size=24, loc_span=3, loc_out_size=48,
        penultimate_dim=64, account_bins=6,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


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
