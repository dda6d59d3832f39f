"""Command-line entry point tying ingestion, training, evaluation, analysis
and hashing into reproducible runs.

Config precedence: command-line flags > config file (key = value lines) >
defaults. Every artifact-producing subcommand writes its resolved config
alongside the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import hashing
from .archive import FORMAT_VERSION
from .corpus import encode_records
from .model import (FEATURE_SETS, FEATURES, TWEET_USER, VOCAB_SIZES, GeoModel,
                    ModelConfig, load_checkpoint, save_checkpoint)
from .rbf_net import bin_weight_profile
from .text_net import top_attended_spans
from .trainer import (SYNTHETIC_SCALE, SyntheticConfig, TrainConfig,
                      TrainingStopped, ablate, evaluate_accuracy,
                      generate_synthetic, train)

MODEL_FILE = "model.gtpa"
# in the order of build_vocabularies and of VOCAB_SIZES
VOCAB_FILES = {"char_vocab.txt": corpus_mod.CharVocabulary,
               "timezones.txt": corpus_mod.CategoryVocabulary,
               "labels.txt": corpus_mod.CategoryVocabulary}
RUN_CONFIG_FILE = "run_config.json"

FLAG_TYPES = {"int": int, "float": float}
# ModelConfig's int and float fields: same-named flags, None when unset
MODEL_FLAGS = {f.name: FLAG_TYPES[f.type]
               for f in dataclasses.fields(ModelConfig) if f.type in FLAG_TYPES}
# the settings of --hashing, beneath the model flags given
HASHING = {"noise_sigma": 0.1, "extrema_alpha": 0.1}
# synth's int flags and the SyntheticConfig fields they set
SYNTH_FLAGS = {"seed": "seed", "cities": "n_cities", "train_size": "n_train",
               "dev_size": "n_dev", "test_size": "n_test"}
# values a config file may give a store_true flag
BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
              "1": True, "0": False}


def read_config_file(path):
    """Simple ``key = value`` text format; '#' starts a comment line, and
    each key, with ``-`` and ``_`` alike, may appear once."""
    values, lines = {}, {}
    for i, line in enumerate(corpus_mod.read_text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {i}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in lines:
            raise ValueError(f"{path}: line {i}: key {key!r} repeats line {lines[key]}")
        values[key], lines[key] = value.strip(), i
    return values


def _apply_config_file(args, argv):
    """Parse argv again, by a parser of its own, with the config file's
    values as the subcommand's defaults: command-line flags win, and each
    value takes its flag's type."""
    if not getattr(args, "config", None):
        return args
    file_values = read_config_file(args.config)
    parser = build_parser()
    (sub,) = [a.choices[args.command] for a in parser._actions
              if a.dest == "command"]
    flags = {flag.dest: flag for flag in sub._actions if hasattr(args, flag.dest)}
    defaults = {}
    for key, raw in file_values.items():
        flag = flags.get(key)
        if flag is None:
            raise ValueError(f"{args.config}: unknown key {key!r} for "
                             f"'{args.command}'")
        if isinstance(flag, argparse._AppendAction):
            # a repeatable flag given on the command line replaces the file's
            if getattr(args, flag.dest) is None:
                defaults[flag.dest] = [raw]
        elif isinstance(flag.default, bool):
            value = BOOL_WORDS.get(raw.lower())
            if value is None:
                raise ValueError(f"{args.config}: {key} must be one of "
                                 f"{'/'.join(BOOL_WORDS)}, got {raw!r}")
            defaults[flag.dest] = value
        else:
            defaults[flag.dest] = raw
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def write_run_config(path, args, format_version=None):
    """The resolved settings, with the format version of the artifact they
    sit beside when it has one."""
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    if format_version is not None:
        resolved["format_version"] = format_version
    with open(path, "w", encoding="utf-8") as f:
        json.dump(resolved, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def model_config_from_args(args):
    """Settings in layers, each over the ones before: the feature set's,
    --synthetic-scale's, --hashing's, then each model flag given. The
    feature set's removals come before each --remove-feature."""
    removed, settings = FEATURE_SETS[args.feature_set]
    settings = {**settings, **(SYNTHETIC_SCALE if args.synthetic_scale else {}),
                **(HASHING if args.hashing else {}),
                **{key: getattr(args, key) for key in MODEL_FLAGS
                   if getattr(args, key) is not None}}
    return ModelConfig(removed_features=(*removed, *(args.remove_feature or ())),
                       **settings)


def load_model_dir(model_dir):
    model_dir = Path(model_dir)
    model, meta = load_checkpoint(str(model_dir / MODEL_FILE))
    vocabs = [kind.load(model_dir / name) for name, kind in VOCAB_FILES.items()]
    for vocab, name, key in zip(vocabs, VOCAB_FILES, VOCAB_SIZES):
        if len(vocab) != meta[key]:
            raise ValueError(f"{model_dir / name}: {len(vocab)} entries, but "
                             f"{model_dir / MODEL_FILE}.json has {key} {meta[key]}")
    return model, meta, *vocabs


def _model_and_data(args, scoring=False):
    """--model's model and vocabularies, --data's records and column table.
    A city that the run's labels lack is an error naming the record, unless
    the command is ``scoring``, which counts it as wrong."""
    model, _, *vocabs = load_model_dir(args.model)
    records = corpus_mod.read_jsonl(args.data)
    columns = encode_records(records, *vocabs, model.config)
    unseen = np.flatnonzero(columns["label_id"] == corpus_mod.UNSEEN_LABEL)
    if len(unseen) and not scoring:
        raise ValueError(f"{args.data}: record {unseen[0] + 1}: unknown category "
                         f"{records[unseen[0]].city_label!r} "
                         f"(not in {Path(args.model) / 'labels.txt'})")
    return model, vocabs, records, columns


def _check_out(args):
    """Refuse, before any input is read, a directory at hash's or lsh's --out
    or <out>.json, a non-directory at another --out, or an --out below a file."""
    out = Path(args.out)
    file_out = args.func in (cmd_hash, cmd_lsh)
    for path in (out, Path(f"{out}.json")) if file_out else ():
        if path.is_dir():
            raise ValueError(f"{path}: is a directory")
    start = out.parent if file_out else out
    existing = next(p for p in (start, *start.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"{existing}: exists and is not a directory")


def _training_splits(args, config):
    """Vocabularies of the filtered train split and column tables of the
    train, dev and test splits, where test is None without --test."""
    train_records = corpus_mod.filter_training(corpus_mod.read_jsonl(args.train))
    if not train_records:
        raise ValueError(f"{args.train}: no record has a text of at least "
                         f"{corpus_mod.MIN_TRAIN_TEXT_CHARS} characters")
    dev_records = corpus_mod.read_jsonl(args.dev)
    test_records = corpus_mod.read_jsonl(args.test) if args.test else None
    vocabs = corpus_mod.build_vocabularies(train_records, args.min_char_count)
    return (vocabs, *(None if r is None else encode_records(r, *vocabs, config)
                      for r in (train_records, dev_records, test_records)))


def _write_report(args, report, filename, format_version=None):
    """Print a report; with --out, also write it and the run config there."""
    print(report, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(report, encoding="utf-8")
        write_run_config(out / RUN_CONFIG_FILE, args, format_version)


def _write_codes(args, codes, kind="codes"):
    """Write the codes to --out and this command's run config next to them,
    as <out>.json, so a run directory's own run_config.json stays."""
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    hashing.save_codes(out, codes)
    write_run_config(f"{out}.json", args, hashing.CODE_FORMAT_VERSION)
    print(f"wrote {len(codes)} {kind} of width {codes.width} to {out}")
    return 0


def _train_config(args):
    return TrainConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(TrainConfig)})


# --- subcommands ------------------------------------------------------------


def cmd_synth(args):
    cfg = SyntheticConfig(
        **{field: getattr(args, flag) for flag, field in SYNTH_FLAGS.items()},
        location_informative=not args.uninformative_location,
        time_informative=not args.uninformative_time,
        timezone_informative=not args.uninformative_timezone,
        text_informative=args.informative_text)
    splits = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, records in zip(("train", "dev", "test"), splits):
        corpus_mod.write_jsonl(out / f"{name}.jsonl", records)
    write_run_config(out / RUN_CONFIG_FILE, args)
    print(f"wrote {'/'.join(str(len(r)) for r in splits)} records to {out}")
    return 0


def cmd_train(args):
    config = _train_config(args)
    model_config = model_config_from_args(args)
    vocabs, train_cols, dev_cols, test_cols = _training_splits(args, model_config)
    rng = np.random.default_rng(config.seed)
    model = GeoModel(model_config, *map(len, vocabs), rng)
    out = Path(args.out)
    try:
        report = train(model, train_cols, dev_cols, config)
    except TrainingStopped as e:
        # the report of the epochs before the stop, and no checkpoint
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(e.report.to_json(), encoding="utf-8")
        raise
    if args.test:
        report.test_accuracy = evaluate_accuracy(model, test_cols)
        report.test_unseen_labels = corpus_mod.unseen_labels(test_cols)
    out.mkdir(parents=True, exist_ok=True)
    for vocab, name in zip(vocabs, VOCAB_FILES):
        vocab.save(out / name)
    save_checkpoint(str(out / MODEL_FILE), model, seed=args.seed)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    _write_report(args, report.to_text(), "report.txt", FORMAT_VERSION)
    return 0


def cmd_eval(args):
    model, _, _, columns = _model_and_data(args, scoring=True)
    accuracy = evaluate_accuracy(model, columns)
    unseen = corpus_mod.unseen_labels(columns)
    _write_report(args, f"accuracy\t{accuracy:.6f}\nunseen_labels\t{unseen}\n",
                  "accuracy.txt")
    return 0


def cmd_ablate(args):
    base_config = model_config_from_args(args)
    vocabs, train_cols, dev_cols, test_cols = _training_splits(args, base_config)

    def build(cfg, seed):
        return GeoModel(cfg, *map(len, vocabs), np.random.default_rng(seed))

    baseline, deltas = ablate(build, train_cols, dev_cols, test_cols,
                              base_config, _train_config(args))
    lines = [f"all_features\t{baseline:.6f}\t-"]
    for feat, delta in deltas.items():
        lines.append(f"-{feat}\t{baseline + delta:.6f}\t{delta:+.6f}")
    _write_report(args, "\n".join(lines) + "\n", "ablation.txt")
    return 0


def cmd_attn(args):
    model, _, records, columns = _model_and_data(args)
    if "text" not in model.features:
        raise ValueError(f"{args.model}: model has no text network")
    attention = model.infer(columns)[2]
    lines = ["example\trank\tstart\tspan\tweight"]
    max_len = model.config.text_max_len
    # a span that starts at or after the row's length holds only padding
    lengths = model.text_lengths(columns["text_ids"])
    for i, (record, weights) in enumerate(zip(records, attention)):
        padded = record.text[:max_len].ljust(max_len)
        spans = top_attended_spans(padded, weights[:lengths[i]],
                                   model.config.text_window, k=args.top_k)
        for rank, (pos, substring, weight) in enumerate(spans, start=1):
            lines.append(f"{i}\t{rank}\t{pos}\t{substring!r}\t{weight:.6f}")
    _write_report(args, "\n".join(lines) + "\n", "attention.txt")
    return 0


def cmd_time_profile(args):
    feature = FEATURES.get(args.feature)
    if feature is None or not feature.rbf:
        raise ValueError(f"unknown time feature {args.feature!r}")
    model, (_, _, label_vocab), _, columns = _model_and_data(args)
    if args.feature not in model.features:
        raise ValueError(f"{args.model}: model has no {args.feature} network")
    net = model.nets[args.feature]
    acts = net.forward(columns[feature.column]).data
    mu = net.params[f"{net.prefix}.mu"].data
    sigma = net.params[f"{net.prefix}.sigma"].data
    lines = ["city\tbin_index\tmu\tsigma\tmean_weight\texcluded"]
    id_to_label = {i: n for n, i in label_vocab.name_to_id.items()}
    for label_id in sorted(set(columns["label_id"].tolist())):
        mask = columns["label_id"] == label_id
        means, excluded = bin_weight_profile(acts[mask])
        city = id_to_label[label_id]
        for b in range(len(mu)):
            lines.append(f"{city}\t{b}\t{mu[b]:.6f}\t{sigma[b]:.6f}"
                         f"\t{means[b]:.6f}\t{int(excluded[b])}")
    _write_report(args, "\n".join(lines) + "\n", "time_profile.txt")
    return 0


def cmd_hash(args):
    model, _, _, columns = _model_and_data(args)
    return _write_codes(args, hashing.encode_code_set(model, columns))


def cmd_retrieve(args):
    test = hashing.load_codes(args.test_codes)
    dev = hashing.load_codes(args.dev_codes)
    if test.width != dev.width:
        raise ValueError(f"{args.test_codes} holds {test.width}-bit codes, "
                         f"{args.dev_codes} {dev.width}-bit ones")
    mean_ap, excluded = hashing.map_from_codes(test, dev)
    if excluded == len(test):
        raise ValueError(f"no code in {args.test_codes} has a code of its label "
                         f"in {args.dev_codes}: no query to score")
    _write_report(args, f"map\t{mean_ap:.6f}\n"
                        f"queries\t{len(test) - excluded}\n"
                        f"excluded\t{excluded}\n", "map_report.txt")
    return 0


def cmd_lsh(args):
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    _, (char_vocab, tz_vocab, _), _, columns = _model_and_data(args)
    features = hashing.raw_feature_matrix(columns, len(char_vocab),
                                          len(tz_vocab))
    rng = np.random.default_rng(args.seed)
    lsh = hashing.LshModel(args.bits, features.shape[1], rng)
    labels = columns["label_id"]
    codes = hashing.CodeSet(bits=lsh.encode(features),
                            ids=np.arange(len(labels), dtype=np.int64),
                            labels=labels)
    return _write_codes(args, codes, "LSH codes")


def cmd_hist(args):
    model, _, _, columns = _model_and_data(args)
    reps, _ = hashing.compute_representations(model, columns)
    counts, edges, masses = hashing.r_histogram(reps, args.bins)
    lines = ["bin_lo\tbin_hi\tcount"]
    for i, c in enumerate(counts):
        lines.append(f"{edges[i]:.6f}\t{edges[i + 1]:.6f}\t{int(c)}")
    for k, v in masses.items():
        lines.append(f"mass_{k}\t-\t{v:.6f}")
    _write_report(args, "\n".join(lines) + "\n", "r_histogram.txt")
    return 0


# --- argument parsing -------------------------------------------------------


def _add_model_flags(p):
    p.add_argument("--synthetic-scale", action="store_true",
                   help="use small hyper-parameters sized for synthetic data")
    for key, type_ in MODEL_FLAGS.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=type_, default=None)
    p.add_argument("--hashing", action="store_true",
                   help="train with noise and extrema loss for binarization")
    p.add_argument("--remove-feature", action="append", default=None)


def _add_train_flags(p):
    for f in dataclasses.fields(TrainConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=FLAG_TYPES[f.type],
                       default=f.default)
    p.add_argument("--min-char-count", type=int,
                   default=corpus_mod.DEFAULT_MIN_COUNT)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geotweet",
        description="Tweet geolocation classifier with binary hashing")
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="key = value config file")
        p.set_defaults(func=fn)
        return p

    def on_run(name, fn, **kwargs):
        """A subcommand reading a run directory and a data file."""
        p = new(name, fn, **kwargs)
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        return p

    p = new("synth", cmd_synth, help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    for flag, field in SYNTH_FLAGS.items():
        p.add_argument(f"--{flag.replace('_', '-')}", type=int,
                       default=getattr(SyntheticConfig, field))
    p.add_argument("--uninformative-location", action="store_true")
    p.add_argument("--uninformative-time", action="store_true")
    p.add_argument("--uninformative-timezone", action="store_true")
    p.add_argument("--informative-text", action="store_true")

    p = new("train", cmd_train, help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test")
    p.add_argument("--out", required=True)
    p.add_argument("--feature-set", choices=list(FEATURE_SETS), default=TWEET_USER)
    _add_model_flags(p)
    _add_train_flags(p)

    p = on_run("eval", cmd_eval, help="evaluate accuracy of a checkpoint")
    p.add_argument("--out")

    p = new("ablate", cmd_ablate, help="feature ablation via retraining")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(feature_set=TWEET_USER)
    _add_model_flags(p)
    _add_train_flags(p)

    p = on_run("attn", cmd_attn, help="top attended character spans per example")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--out")

    p = on_run("time-profile", cmd_time_profile,
            help="per-city RBF bin-weight profile")
    p.add_argument("--feature", default="tweet_time")
    p.add_argument("--out")

    p = on_run("hash", cmd_hash, help="binarize representations to a code file")
    p.add_argument("--out", required=True)

    p = new("retrieve", cmd_retrieve, help="Hamming retrieval MAP report")
    p.add_argument("--test-codes", required=True)
    p.add_argument("--dev-codes", required=True)
    p.add_argument("--out")

    p = on_run("lsh", cmd_lsh, help="LSH baseline codes over raw input features")
    p.add_argument("--bits", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = on_run("hist", cmd_hist, help="histogram of penultimate values")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--out")

    return parser


@functools.cache
def _parser():
    """main's parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
        if getattr(args, "out", None):
            _check_out(args)
        return args.func(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
