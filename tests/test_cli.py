import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import geotweet
from geotweet.cli import main, read_config_file
from geotweet.model import ModelConfig
from geotweet import hashing as H
from geotweet.rbf_net import RbfNetwork

from conftest import graph_nodes, op_counts
from oracles import map_eval


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> hash artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["synth", "--out", str(data), "--cities", "4",
                 "--train-size", "300", "--dev-size", "60",
                 "--test-size", "60", "--seed", "5"]) == 0
    assert main(["train", "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"),
                 "--test", str(data / "test.jsonl"),
                 "--out", str(run), "--synthetic-scale",
                 "--batch-size", "64", "--epochs", "3",
                 "--min-char-count", "1", "--seed", "5"]) == 0
    return {"root": root, "data": data, "run": run}


def test_train_writes_artifacts(pipeline):
    run = pipeline["run"]
    for name in ("model.gtpa", "model.gtpa.json", "char_vocab.txt",
                 "timezones.txt", "labels.txt", "report.txt", "report.json",
                 "run_config.json"):
        assert (run / name).exists(), name


def test_run_config_records_seed(pipeline):
    resolved = json.loads((pipeline["run"] / "run_config.json").read_text())
    assert resolved["seed"] == 5


def test_report_of_a_full_run_records_no_stop(pipeline):
    report = json.loads((pipeline["run"] / "report.json").read_text())
    assert report["stopped"] is None and len(report["dev_accuracy"]) == 3


def test_eval_is_deterministic(pipeline, capsys):
    args = ["eval", "--model", str(pipeline["run"]),
            "--data", str(pipeline["data"] / "test.jsonl")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_hash_then_retrieve_matches_in_process_map(pipeline, capsys):
    root, run, data = (pipeline[k] for k in ("root", "run", "data"))
    dev_codes = root / "dev.bin"
    test_codes = root / "test.bin"
    for split, out in (("dev", dev_codes), ("test", test_codes)):
        assert main(["hash", "--model", str(run),
                     "--data", str(data / f"{split}.jsonl"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["retrieve", "--test-codes", str(test_codes),
                 "--dev-codes", str(dev_codes)]) == 0
    reported = float(capsys.readouterr().out.splitlines()[0].split("\t")[1])

    from geotweet.cli import load_model_dir, encode_records
    from geotweet import corpus as C
    model, _, cv, tv, lv = load_model_dir(run)
    dev_ex = encode_records(C.read_jsonl(data / "dev.jsonl"), cv, tv, lv,
                            model.config)
    test_ex = encode_records(C.read_jsonl(data / "test.jsonl"), cv, tv, lv,
                             model.config)
    expected, _ = map_eval(model, dev_ex, test_ex)
    assert reported == pytest.approx(expected, abs=5e-7)


def test_lsh_codes_written(pipeline):
    out = pipeline["root"] / "lsh.bin"
    assert main(["lsh", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "dev.jsonl"),
                 "--bits", "32", "--out", str(out), "--seed", "1"]) == 0
    codes = H.load_codes(out)
    assert codes.width == 32 and len(codes) == 60


def test_codes_written_into_a_run_keep_its_run_config(pipeline, tmp_path):
    # hash and lsh write their settings next to their codes, as <out>.json
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    dev = str(pipeline["data"] / "dev.jsonl")
    assert main(["hash", "--model", str(run), "--data", dev,
                 "--out", str(run / "dev.codes")]) == 0
    assert main(["lsh", "--model", str(run), "--data", dev, "--bits", "16",
                 "--out", str(run / "lsh.codes")]) == 0
    resolved = json.loads((run / "run_config.json").read_text())
    assert (resolved["command"], resolved["seed"]) == ("train", 5)
    for name, command in (("dev.codes", "hash"), ("lsh.codes", "lsh")):
        resolved = json.loads((run / f"{name}.json").read_text())
        assert resolved["command"] == command


def test_attn_reports_spans(pipeline, capsys):
    assert main(["attn", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "test.jsonl"),
                 "--top-k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("example\trank")
    assert len(lines) == 1 + 2 * 60


def test_attn_ranks_no_span_of_only_padding(pipeline, tmp_path, capsys):
    # "ab c" starts 4 of the 36 spans of 5 that T = 40 holds
    record = json.loads((pipeline["data"] / "test.jsonl").read_text().splitlines()[0])
    data = tmp_path / "short.jsonl"
    data.write_text(json.dumps({**record, "text": "ab c"}) + "\n")
    assert main(["attn", "--model", str(pipeline["run"]), "--data", str(data),
                 "--top-k", "10"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert sorted(int(start) for _, _, start, _, _ in rows) == [0, 1, 2, 3]
    assert sum(float(weight) for *_, weight in rows) == pytest.approx(1.0, abs=1e-5)


def test_time_profile_emits_all_bins(pipeline, capsys, monkeypatch):
    outputs = []
    forward = RbfNetwork.forward

    def spy(net, u):
        outputs.append(forward(net, u))
        return outputs[-1]

    monkeypatch.setattr(RbfNetwork, "forward", spy)
    assert main(["time-profile", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "test.jsonl")]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = lines[1].split("\t")
    assert len(fields) == 6 and fields[5] in ("0", "1")
    # the activations and every node behind them are in the model's dtype
    (acts,) = outputs
    nodes = graph_nodes(acts)
    assert Counter(str(n.data.dtype) for n in nodes) == {"float32": len(nodes)}
    assert op_counts(nodes) == {"rbf": 1}


def test_hist_reports_masses(pipeline, capsys):
    assert main(["hist", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "test.jsonl"),
                 "--bins", "10"]) == 0
    out = capsys.readouterr().out
    assert "mass_middle" in out and "mass_high_extreme" in out


@pytest.fixture(scope="module")
def run_without_text(pipeline, tmp_path_factory):
    """A run directory whose model has neither text nor tweet_time."""
    run = tmp_path_factory.mktemp("cli-no-text") / "run"
    assert main(_train_argv(pipeline["data"], run) + [
        "--remove-feature", "text", "--remove-feature", "tweet_time"]) == 0
    return run


@pytest.mark.parametrize("command, message", [
    ("attn", "{run}: model has no text network"),
    ("time-profile --feature text", "unknown time feature 'text'"),
    ("time-profile --feature tweet_time",
     "{run}: model has no tweet_time network"),
])
def test_refused_command_fails_with_one_error_line(
        pipeline, run_without_text, tmp_path, capsys, command, message):
    name, *flags = command.split()
    argv = [name, "--model", str(run_without_text),
            "--data", str(pipeline["data"] / "test.jsonl"),
            "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv + flags) == 1
    message = message.format(run=run_without_text)
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_eval_counts_an_unseen_city_as_wrong(pipeline, tmp_path, capsys):
    lines = (pipeline["data"] / "test.jsonl").read_text().splitlines(True)
    record = json.loads(lines[0])
    record["city_label"] = "nowhere"
    rest = tmp_path / "rest.jsonl"
    rest.write_text("".join(lines[1:]))
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))

    def report(data):
        assert main(["eval", "--model", str(pipeline["run"]),
                     "--data", str(data)]) == 0
        return dict(line.split("\t")
                    for line in capsys.readouterr().out.splitlines())

    known, with_unseen = report(rest), report(mixed)
    assert list(with_unseen) == ["accuracy", "unseen_labels"]
    assert (known["unseen_labels"], with_unseen["unseen_labels"]) == ("0", "1")
    n = len(lines)
    assert float(with_unseen["accuracy"]) == pytest.approx(
        float(known["accuracy"]) * (n - 1) / n, abs=1e-6)
    # the other commands that read labels still reject it
    assert main(["hash", "--model", str(pipeline["run"]), "--data", str(mixed),
                 "--out", str(tmp_path / "codes.bin")]) == 1
    assert "unknown category 'nowhere'" in capsys.readouterr().err


def test_non_finite_loss_fails_with_one_error_line(pipeline, tmp_path, capsys):
    data = pipeline["data"]
    assert main(["train", "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"), "--out", str(tmp_path / "run"),
                 "--synthetic-scale", "--batch-size", "64", "--epochs", "1",
                 "--learning-rate", "1e300"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss at "
                                               "epoch 1, batch ")
    # the report of the stopped run, and no checkpoint
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["stopped"] == err[0].removeprefix("error: ")
    assert report["dev_accuracy"] == [] and report["test_accuracy"] is None
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["report.json"]


def _train_argv(data, out, **files):
    """``train`` on the pipeline's splits for one epoch, with ``files``
    replacing any of --train, --dev and --test."""
    files = {"train": data / "train.jsonl", "dev": data / "dev.jsonl",
             "test": data / "test.jsonl", **files}
    return ["train", *(arg for split, path in files.items()
                       for arg in (f"--{split}", str(path))),
            "--out", str(out), "--synthetic-scale", "--epochs", "1"]


@pytest.mark.parametrize("command", ["hash"])
def test_unknown_city_names_the_file_the_record_and_the_labels(
        pipeline, tmp_path, capsys, command):
    data, run = pipeline["data"], pipeline["run"]
    lines = (data / "dev.jsonl").read_text().splitlines(True)
    record = json.loads(lines[1])
    record["city_label"] = "nowhere"
    bad = tmp_path / "bad.jsonl"
    bad.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
    assert main([command, "--model", str(run), "--data", str(bad),
                 "--out", str(tmp_path / "codes.bin")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: record 2: unknown category 'nowhere' "
        f"(not in {run / 'labels.txt'})\n")


def test_eval_of_only_unseen_cities_scores_zero(pipeline, tmp_path, capsys):
    from geotweet.cli import load_model_dir
    from geotweet.corpus import encode_records

    src = pipeline["data"] / "test.jsonl"
    n = len(src.read_text().splitlines())
    unseen, _, _ = _with_unseen_cities(src, tmp_path, range(n))
    assert main(["eval", "--model", str(pipeline["run"]),
                 "--data", str(unseen)]) == 0
    assert capsys.readouterr().out == f"accuracy\t0.000000\nunseen_labels\t{n}\n"
    # the known records of that file: a table of no rows, id columns kept 2-D
    model, _, *vocabs = load_model_dir(pipeline["run"])
    table = encode_records([], *vocabs, model.config)
    assert table["text_ids"].shape == (0, model.config.text_max_len)
    assert table["location_ids"].shape == (0, model.config.loc_max_len)
    assert all(len(column) == 0 for column in table.values())


def _with_unseen_cities(src, tmp_path, records):
    """``src`` with the city of each listed record replaced by one that no
    split has, and ``src`` without those records: (mixed, rest, size)."""
    lines = src.read_text().splitlines(True)
    mixed, rest = tmp_path / f"mixed-{src.name}", tmp_path / f"rest-{src.name}"
    mixed.write_text("".join(
        json.dumps({**json.loads(line), "city_label": "nowhere"}) + "\n"
        if i in records else line for i, line in enumerate(lines)))
    rest.write_text("".join(line for i, line in enumerate(lines)
                            if i not in records))
    return mixed, rest, len(lines)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_unseen_dev_and_test_cities_count_as_wrong(pipeline, tmp_path, capsys,
                                                   command):
    data = pipeline["data"]
    mixed_dev, rest_dev, n_dev = _with_unseen_cities(data / "dev.jsonl",
                                                     tmp_path, {1, 4})
    mixed_test, rest_test, n_test = _with_unseen_cities(data / "test.jsonl",
                                                        tmp_path, {0})

    def run(tag, dev, test):
        argv = _train_argv(data, tmp_path / tag, dev=dev, test=test)
        assert main([command, *argv[1:]]) == 0
        capsys.readouterr()
        if command == "train":
            return json.loads((tmp_path / tag / "report.json").read_text())
        first = (tmp_path / tag / "ablation.txt").read_text().splitlines()[0]
        return {"test_accuracy": float(first.split("\t")[1])}

    rest = run("rest", rest_dev, rest_test)
    mixed = run("mixed", mixed_dev, mixed_test)
    # the same seed trains the same model; each unseen record is one more
    # wrong answer
    assert mixed["test_accuracy"] == pytest.approx(
        rest["test_accuracy"] * (n_test - 1) / n_test, abs=1e-6)
    if command == "train":
        assert mixed["dev_accuracy"][0] == pytest.approx(
            rest["dev_accuracy"][0] * (n_dev - 2) / n_dev, abs=1e-12)
        assert (rest["dev_unseen_labels"], rest["test_unseen_labels"]) == (0, 0)
        assert (mixed["dev_unseen_labels"], mixed["test_unseen_labels"]) == (2, 1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_paper_scale_train_writes_the_same_model_on_one_cpu_and_two(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--cities", "3", "--train-size",
                 "32", "--dev-size", "8", "--test-size", "8", "--seed", "7"]) == 0
    # ModelConfig() and batch 32: every text op runs its halves on two
    # threads when it may; one BLAS thread, so the engine's threads are the
    # only difference
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(geotweet.__file__).parent.parent)}
    cpus = sorted(os.sched_getaffinity(0))[:2]

    def train(allowed):
        out = tmp_path / f"cpus-{len(allowed)}"
        # the child counts the halves it sends to a worker thread
        child = (f"import os, sys; os.sched_setaffinity(0, {allowed!r}); "
                 "from geotweet import autodiff as ad; "
                 "from geotweet.cli import main; "
                 "pool, sent = ad.ThreadPoolExecutor, []; "
                 "ad.ThreadPoolExecutor = type('Counting', (pool,), {'submit': "
                 "lambda self, *a: sent.append(1) or pool.submit(self, *a)}); "
                 "code = main(sys.argv[1:]); print(ad._CPUS, len(sent)); "
                 "sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", child, "train",
             "--train", str(data / "train.jsonl"), "--dev", str(data / "dev.jsonl"),
             "--out", str(out), "--batch-size", "32", "--epochs", "1",
             "--seed", "7"],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        cpus_seen, sent = map(int, proc.stdout.splitlines()[-1].split())
        assert cpus_seen == len(allowed) and (sent > 0) == (len(allowed) == 2)
        return (out / "model.gtpa").read_bytes()

    assert train(cpus[:1]) == train(cpus)


@pytest.mark.parametrize("command", [
    "eval", "attn", "time-profile", "hash", "lsh", "hist",
    "train --train", "train --dev", "train --test"])
def test_data_file_without_records_fails_with_one_error_line(
        pipeline, tmp_path, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    if command.startswith("train"):
        argv = _train_argv(pipeline["data"], tmp_path / "run",
                           **{command.split("--")[1]: empty})
    else:
        argv = [command, "--model", str(pipeline["run"]), "--data", str(empty),
                "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {empty}: no records\n"
    assert not (tmp_path / "run").exists()


def test_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["eval", "--model", str(tmp_path / "nope"),
                 "--data", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["eval --data", "train --train", "--config"])
def test_non_utf8_file_fails_naming_it(pipeline, tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff{}\n")
    if flag == "eval --data":
        argv = ["eval", "--model", str(pipeline["run"]), "--data", str(bad)]
    elif flag == "train --train":
        argv = _train_argv(pipeline["data"], tmp_path / "run", train=bad)
    else:
        argv = _train_argv(pipeline["data"], tmp_path / "run") + [
            "--config", str(bad)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: not a UTF-8 text file\n"
    assert not (tmp_path / "run").exists()


def test_malformed_jsonl_reports_line(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    assert main(["eval", "--model", str(pipeline["run"]),
                 "--data", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("change, fault", [
    ([1, 2], "not a JSON object: [1, 2]"),
    ("just a string", 'not a JSON object: "just a string"'),
    ({"text": 5}, "field 'text' must be a string, got 5"),
    ({"utc_offset": "abc"}, "field 'utc_offset' must be an integer or null, "
                            'got "abc"'),
    ({"utc_offset": True}, "field 'utc_offset' must be an integer or null, got true"),
    ({"utc_offset": 10**400}, f"field 'utc_offset' is out of range: {10**400}"),
    ({"created_at": 1e20}, "field 'created_at' is not a valid timestamp: 1e+20"),
    ({"created_at": True}, "field 'created_at' must be an ISO-8601 string or "
                           "epoch seconds, got true"),
    ({"timezone": 7}, "field 'timezone' must be a string or null, got 7"),
], ids=["array", "string", "text", "offset-text", "offset-bool", "offset-range",
        "time-range", "time-bool", "timezone"])
def test_malformed_record_fails_with_one_error_line(pipeline, tmp_path, capsys,
                                                    change, fault):
    first, *rest = (pipeline["data"] / "test.jsonl").read_text().splitlines(True)
    record = ({**json.loads(first), **change} if isinstance(change, dict)
              else change)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
    assert main(["eval", "--model", str(pipeline["run"]),
                 "--data", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 1: {fault}\n"


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ncities = 3\nseed = 9\n", encoding="utf-8")
    values = read_config_file(cfg)
    assert values == {"cities": "3", "seed": "9"}
    out = tmp_path / "synth"
    # --cities on the command line beats the file; seed comes from the file
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--cities", "2", "--train-size", "10",
                 "--dev-size", "2", "--test-size", "2"]) == 0
    resolved = json.loads((out / "run_config.json").read_text())
    assert resolved["cities"] == 2 and resolved["seed"] == 9


def test_config_file_values_take_their_flag_types(tmp_path, pipeline):
    # both flags default to None, so their type comes from the flag itself
    cfg = tmp_path / "run.cfg"
    cfg.write_text("text-max-len = 20\ndropout = 0.3\n", encoding="utf-8")
    data, out = pipeline["data"], tmp_path / "run"
    assert main(["train", "--config", str(cfg),
                 "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"), "--out", str(out),
                 "--synthetic-scale", "--epochs", "1",
                 "--min-char-count", "1"]) == 0
    resolved = json.loads((out / "run_config.json").read_text())
    assert resolved["text_max_len"] == 20 and resolved["dropout"] == 0.3
    meta = json.loads((out / "model.gtpa.json").read_text())
    assert meta["config"]["text_max_len"] == 20
    assert meta["config"]["dropout"] == 0.3


def test_abbreviated_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cities = 5\n", encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--cit", "2", "--train-size", "10",
                 "--dev-size", "2", "--test-size", "2"]) == 0
    assert json.loads((out / "run_config.json").read_text())["cities"] == 2


@pytest.mark.parametrize("argv, removed", [
    ([], ["location"]),  # the file's value is one feature, not its letters
    (["--remove-feature", "text"], ["text"]),  # the command line replaces it
])
def test_repeatable_flag_from_config_file(tmp_path, pipeline, argv, removed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("remove-feature = location\n", encoding="utf-8")
    data, out = pipeline["data"], tmp_path / "run"
    assert main(["train", "--config", str(cfg), *argv,
                 "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"), "--out", str(out),
                 "--synthetic-scale", "--epochs", "1",
                 "--min-char-count", "1"]) == 0
    resolved = json.loads((out / "run_config.json").read_text())
    assert resolved["remove_feature"] == removed
    meta = json.loads((out / "model.gtpa.json").read_text())
    assert meta["config"]["removed_features"] == removed


@pytest.mark.parametrize("flag, field", [
    ("--account-bins", "account_bins"),
    ("--text-emb-size", "text_emb_size"),
    ("--batch-size", "batch_size"),
])
def test_non_positive_size_names_the_field(tmp_path, pipeline, capsys, flag,
                                           field):
    data = pipeline["data"]
    assert main(["train", "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"), "--out", str(tmp_path),
                 "--synthetic-scale", "--epochs", "1", flag, "0"]) == 1
    assert capsys.readouterr().err == f"error: {field} must be >= 1, got 0\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--loc-span", "13", "loc_span 13 is longer than loc_max_len 12"),
    ("--text-window", "41", "text_window 41 is longer than text_max_len 40"),
])
def test_window_longer_than_its_sequence_names_both_fields(
        tmp_path, pipeline, capsys, flag, value, message):
    data, out = pipeline["data"], tmp_path / "run"
    assert main(["train", "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"), "--out", str(out),
                 "--synthetic-scale", "--epochs", "1", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["-0.5", "1.0"])
def test_dropout_out_of_range_names_the_field(tmp_path, pipeline, capsys,
                                              value):
    data = pipeline["data"]
    assert main(["train", "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"), "--out", str(tmp_path),
                 "--synthetic-scale", "--epochs", "1",
                 "--dropout", value]) == 1
    assert capsys.readouterr().err == (
        f"error: dropout must be in [0, 1), got {float(value)}\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--noise-sigma", "-0.5", "noise_sigma must be finite and >= 0, got -0.5"),
    ("--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
    ("--extrema-alpha", "nan", "extrema_alpha must be finite and >= 0, got nan"),
    ("--learning-rate", "-0.001",
     "learning_rate must be finite and > 0, got -0.001"),
    ("--learning-rate", "0", "learning_rate must be finite and > 0, got 0.0"),
    ("--learning-rate", "nan", "learning_rate must be finite and > 0, got nan"),
])
def test_bad_noise_penalty_or_learning_rate_names_the_field(
        tmp_path, pipeline, capsys, flag, value, message):
    out = tmp_path / "run"
    argv = _train_argv(pipeline["data"], out) + ["--hashing", flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, expected", [
    (["--noise-sigma", "0.2"], (0.2, 0.0)),
    (["--hashing"], (0.1, 0.1)),
    (["--hashing", "--extrema-alpha", "0.3"], (0.1, 0.3)),
])
def test_noise_and_penalty_apply_with_or_without_hashing(tmp_path, pipeline,
                                                         flags, expected):
    out = tmp_path / "run"
    assert main(_train_argv(pipeline["data"], out) + flags) == 0
    config = json.loads((out / "model.gtpa.json").read_text())["config"]
    assert (config["noise_sigma"], config["extrema_alpha"]) == expected


@pytest.mark.parametrize("command, message", [
    ("train --epochs 0", "epochs must be >= 1, got 0"),
    ("train --epochs -2", "epochs must be >= 1, got -2"),
    ("lsh --bits 0", "n_bits must be >= 1, got 0"),
    ("attn --top-k -1", "k must be >= 1, got -1"),
    ("synth --train-size -5", "n_train must be >= 1, got -5"),
    ("synth --cities 0", "n_cities must be >= 1, got 0"),
    ("hist --bins 0", "bins must be >= 1, got 0"),
    ("synth --seed -1", "seed must be >= 0, got -1"),
    ("train --seed -1", "seed must be >= 0, got -1"),
    ("lsh --seed -1", "seed must be >= 0, got -1"),
])
def test_count_below_one_names_the_field(tmp_path, pipeline, capsys, command,
                                         message):
    name, *flags = command.split()
    data, out = pipeline["data"], tmp_path / "out"
    if name == "train":
        argv = _train_argv(data, out)
    elif name == "synth":
        argv = ["synth", "--out", str(out)]
    else:
        argv = [name, "--model", str(pipeline["run"]),
                "--data", str(data / "dev.jsonl"), "--out", str(out)]
    capsys.readouterr()
    assert main(argv + flags) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def _numeric_flags():
    """(command, flag, dest) of every int or float flag of every subcommand."""
    from geotweet.cli import build_parser
    (commands,) = [a.choices for a in build_parser()._actions
                   if a.dest == "command"]
    return [(name, flag.option_strings[0], flag.dest)
            for name, p in commands.items() for flag in p._actions
            if flag.type in (int, float)]


# the field an error names, where it is not the flag's dest
FIELD_OF_DEST = {"cities": "n_cities", "train_size": "n_train",
                 "dev_size": "n_dev", "test_size": "n_test",
                 "min_char_count": "min_count", "top_k": "k", "bits": "n_bits"}


# -1, nan and inf are out of range for every numeric flag, so no case starts
# a run; 1e400 parses to inf, and 2**70 is in range for counts such as --epochs
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command, flag, dest", _numeric_flags())
def test_out_of_range_numeric_flag_fails_naming_it(
        pipeline, tmp_path, capsys, command, flag, dest, value):
    data, out = pipeline["data"], tmp_path / "out"
    if command in ("train", "ablate"):
        argv = [command, *_train_argv(data, out)[1:]]
    elif command == "synth":
        argv = ["synth", "--out", str(out)]
    else:
        argv = [command, "--model", str(pipeline["run"]),
                "--data", str(data / "dev.jsonl"), "--out", str(out)]
    capsys.readouterr()
    try:
        code = main(argv + [flag, value])
    except SystemExit as e:  # argparse's own refusal
        code = e.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 1:
        field = FIELD_OF_DEST.get(dest, dest)
        assert len(lines) == 1 and lines[0].startswith(f"error: {field} ")
    else:
        assert code == 2 and f"argument {flag}" in lines[-1]
    assert not out.exists()


def test_retrieve_of_codes_of_different_widths_names_both_files(tmp_path,
                                                                capsys):
    wide, narrow = tmp_path / "test.codes", tmp_path / "lsh.codes"
    for path, width in ((wide, 64), (narrow, 16)):
        H.save_codes(path, H.CodeSet(bits=np.zeros((2, width), dtype=np.uint8),
                                     ids=np.arange(2),
                                     labels=np.zeros(2, dtype=np.int64)))
    assert main(["retrieve", "--test-codes", str(wide),
                 "--dev-codes", str(narrow)]) == 1
    assert capsys.readouterr().err == (
        f"error: {wide} holds 64-bit codes, {narrow} 16-bit ones\n")


@pytest.mark.parametrize("line, message", [
    ("epochs 1", "line 2: expected 'key = value'"),
    ("epoch = 1", "unknown key 'epoch' for 'synth'"),
    ("informative-text = maybe",
     "informative_text must be one of true/false/yes/no/1/0, got 'maybe'"),
    ("seed = 4", "line 2: key 'seed' repeats line 1"),
])
def test_bad_config_file_key_fails_with_one_error_line(tmp_path, capsys, line,
                                                       message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 3\n{line}\n", encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--train-size", "10", "--dev-size", "2",
                 "--test-size", "2"]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("word, expected", [("YES", True), ("0", False)])
def test_config_file_bool_words(tmp_path, word, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"informative-text = {word}\n", encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--train-size", "10", "--dev-size", "2",
                 "--test-size", "2"]) == 0
    resolved = json.loads((out / "run_config.json").read_text())
    assert resolved["informative_text"] is expected


def test_vocab_file_not_matching_checkpoint(pipeline, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    labels = run / "labels.txt"
    labels.write_text("".join(labels.read_text().splitlines(True)[:3]))
    assert main(["eval", "--model", str(run),
                 "--data", str(pipeline["data"] / "test.jsonl")]) == 1
    assert capsys.readouterr().err == (
        f"error: {labels}: 2 entries, but {run / 'model.gtpa.json'} has "
        "n_classes 4\n")


def test_malformed_vocab_line_names_file_and_line(pipeline, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    vocab = run / "char_vocab.txt"
    lines = vocab.read_text().splitlines(True)
    lines[1] = lines[1].split("\t")[0] + "\n"
    vocab.write_text("".join(lines))
    assert main(["eval", "--model", str(run),
                 "--data", str(pipeline["data"] / "test.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {vocab}: line 2: ")


def test_truncated_code_file_fails_with_one_error_line(pipeline, tmp_path,
                                                       capsys):
    dev_codes = tmp_path / "dev.bin"
    assert main(["hash", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "dev.jsonl"),
                 "--out", str(dev_codes)]) == 0
    cut = tmp_path / "cut.bin"
    cut.write_bytes(dev_codes.read_bytes()[:10])
    capsys.readouterr()
    assert main(["retrieve", "--test-codes", str(cut),
                 "--dev-codes", str(dev_codes)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cut}: truncated")


def test_repeated_code_id_fails_with_one_error_line(tmp_path, capsys):
    codes = tmp_path / "dup.codes"
    H.save_codes(codes, H.CodeSet(bits=np.array([[1], [0], [1]], dtype=np.uint8),
                                  ids=np.array([0, 0, 1]), labels=np.zeros(3, dtype=np.int64)))
    assert main(["retrieve", "--test-codes", str(codes),
                 "--dev-codes", str(codes)]) == 1
    assert capsys.readouterr().err == f"error: {codes}: repeated id 0\n"


MESSAGE_ONLY_REMOVED = ("tweet_time", "utc_offset", "timezone", "location",
                        "account_time")


@pytest.mark.parametrize("argv, expected", [
    # message-only's preset selects the wider text output
    (["train", "--feature-set", "message-only"],
     {"text_emb_size": 200, "text_window": 10, "text_out_size": 600,
      "removed_features": MESSAGE_ONLY_REMOVED}),
    # the presets layer in order, lowest first: feature set, synthetic
    # scale, hashing, then each model flag given
    (["train", "--synthetic-scale", "--feature-set", "message-only"],
     {"text_out_size": 32, "removed_features": MESSAGE_ONLY_REMOVED}),
    (["train", "--feature-set", "message-only", "--text-out-size", "7"],
     {"text_out_size": 7}),
    (["train", "--synthetic-scale", "--hashing", "--extrema-alpha", "0"],
     {"noise_sigma": 0.1, "extrema_alpha": 0.0}),
    (["ablate", "--test", "t"], dataclasses.asdict(ModelConfig())),
])
def test_train_message_only_defaults(argv, expected):
    from geotweet.cli import build_parser, model_config_from_args
    args = build_parser().parse_args(
        [*argv, "--train", "x", "--dev", "y", "--out", "z"])
    cfg = dataclasses.asdict(model_config_from_args(args))
    assert {key: cfg[key] for key in expected} == expected


def test_code_width_zero_fails_with_one_error_line(tmp_path, capsys):
    codes = tmp_path / "width0.codes"
    codes.write_bytes(b"GTBC" + struct.pack("<IIQ", 1, 0, 3) + bytes(16 * 3))
    assert main(["retrieve", "--test-codes", str(codes),
                 "--dev-codes", str(codes)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {codes}: code width 0")


def test_code_file_of_no_records_fails_with_one_error_line(pipeline, tmp_path,
                                                          capsys):
    empty = tmp_path / "empty.codes"
    empty.write_bytes(b"GTBC" + struct.pack("<IIQ", 1, 400, 0))
    dev_codes = tmp_path / "dev.codes"
    assert main(["hash", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "dev.jsonl"),
                 "--out", str(dev_codes)]) == 0
    for test, dev in ((empty, dev_codes), (dev_codes, empty)):
        capsys.readouterr()
        assert main(["retrieve", "--test-codes", str(test),
                     "--dev-codes", str(dev)]) == 1
        assert capsys.readouterr().err == f"error: {empty}: no records\n"


def test_retrieve_with_no_query_to_score_names_both_files(tmp_path, capsys):
    def codes(name, labels):
        path = tmp_path / name
        H.save_codes(path, H.CodeSet(bits=np.ones((len(labels), 8), dtype=np.uint8),
                                     ids=np.arange(len(labels)),
                                     labels=np.array(labels)))
        return path

    test, dev = codes("test.codes", [0, 0]), codes("dev.codes", [1, 2])
    assert main(["retrieve", "--test-codes", str(test),
                 "--dev-codes", str(dev)]) == 1
    assert capsys.readouterr().err == (
        f"error: no code in {test} has a code of its label in {dev}: "
        "no query to score\n")


def test_message_only_without_text_fails_before_reading_data(tmp_path, capsys):
    missing, out = tmp_path / "missing.jsonl", tmp_path / "run"
    assert main(["train", "--train", str(missing), "--dev", str(missing),
                 "--out", str(out), "--feature-set", "message-only",
                 "--remove-feature", "text"]) == 1
    assert capsys.readouterr().err == (
        "error: model has no active features: removed tweet_time, "
        "utc_offset, timezone, location, account_time, text\n")
    assert not out.exists()


def test_ablate_leaving_no_feature_fails_before_its_baseline(
        pipeline, tmp_path, capsys, monkeypatch):
    import geotweet.trainer as trainer_mod

    def refuse(*args):
        pytest.fail("ablate trained a model")

    monkeypatch.setattr(trainer_mod, "train", refuse)
    out = tmp_path / "ablate"
    argv = ["ablate", *_train_argv(pipeline["data"], out)[1:]]
    for feat in ("tweet_time", "utc_offset", "timezone", "location",
                 "account_time"):
        argv += ["--remove-feature", feat]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: model has no active features: removed tweet_time, ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("below", ["", "run"])
def test_out_under_a_file_fails_before_training(pipeline, tmp_path, capsys,
                                                monkeypatch, command, below):
    def refuse(*args):
        pytest.fail(f"{command} started training")

    monkeypatch.setattr("geotweet.cli.train", refuse)
    monkeypatch.setattr("geotweet.cli.ablate", refuse)
    afile = tmp_path / "afile"
    afile.write_bytes(b"not a run\n")
    argv = [command, *_train_argv(pipeline["data"], afile / below)[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {afile}: exists and is not a directory\n")
    assert afile.read_bytes() == b"not a run\n"


@pytest.mark.parametrize("command", ["eval", "attn", "time-profile", "retrieve",
                                     "hist", "hash", "lsh"])
def test_out_that_cannot_be_written_fails_before_any_input_is_read(
        pipeline, tmp_path, capsys, command):
    # hash and lsh write a file, which an existing directory cannot be; the
    # others write a directory, which an existing file cannot be
    if command in ("hash", "lsh"):
        out = tmp_path / "adir"
        out.mkdir()
    else:
        out = tmp_path / "afile"
        out.write_bytes(b"not a run\n")
    if command == "retrieve":
        codes = tmp_path / "codes"
        H.save_codes(codes, H.CodeSet(bits=np.eye(2, 8, dtype=np.uint8),
                                      ids=np.arange(2),
                                      labels=np.zeros(2, dtype=np.int64)))
        argv = [command, "--test-codes", str(codes), "--dev-codes", str(codes)]
    else:
        argv = [command, "--model", str(pipeline["run"]),
                "--data", str(pipeline["data"] / "test.jsonl")]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}: ")
    assert captured.err.count("\n") == 1
    assert out.is_dir() == (command in ("hash", "lsh"))


@pytest.mark.parametrize("command", ["hash", "lsh"])
def test_codes_out_whose_json_is_a_directory_fails_before_any_input_is_read(
        pipeline, tmp_path, capsys, command):
    out = tmp_path / "x"
    (tmp_path / "x.json").mkdir()
    argv = [command, "--model", str(pipeline["run"]),
            "--data", str(pipeline["data"] / "test.jsonl"), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out}.json: is a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("field, name", [("timezone", "Zone/a\nb"),
                                         ("city_label", "city\r0")])
def test_category_name_with_a_line_break_fails_before_training(
        pipeline, tmp_path, capsys, field, name):
    # a vocabulary file keeps one name a line, so such a name cannot be saved
    first, *rest = (pipeline["data"] / "train.jsonl").read_text().splitlines(True)
    bad = tmp_path / "train.jsonl"
    bad.write_text(json.dumps({**json.loads(first), field: name}) + "\n"
                   + "".join(rest), encoding="utf-8")
    out = tmp_path / "run"
    assert main(_train_argv(pipeline["data"], out, train=bad)) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 1: field {field!r} holds a line break\n")
    assert not out.exists()


@pytest.mark.parametrize("field", ["timezone", "city_label"])
def test_category_name_with_a_lone_surrogate_fails_before_training(
        pipeline, tmp_path, capsys, field):
    # a vocabulary file is UTF-8, which has no code for a lone surrogate
    first, *rest = (pipeline["data"] / "train.jsonl").read_text().splitlines(True)
    bad = tmp_path / "train.jsonl"
    bad.write_text(json.dumps({**json.loads(first), field: "Zone/\ud800x"}) + "\n"
                   + "".join(rest), encoding="utf-8")
    assert "\\ud800" in bad.read_text()  # a JSON escape, as a file holds it
    out = tmp_path / "run"
    assert main(_train_argv(pipeline["data"], out, train=bad)) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 1: field {field!r} holds a lone surrogate\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value, fault", [
    ("text_max_len", 40.0, "text_max_len must be an integer, got 40.0"),
    ("loc_max_len", 12.5, "loc_max_len must be an integer, got 12.5"),
    ("text_window", 5.0, "text_window must be an integer, got 5.0"),
    ("text_max_len", True, "text_max_len must be an integer, got True"),
    ("dropout", "0.2", "dropout must be a number, got '0.2'"),
], ids=["float-size", "fraction-size", "float-window", "bool-size", "text-rate"])
def test_sidecar_setting_of_the_wrong_type_fails_with_one_error_line(
        pipeline, tmp_path, capsys, key, value, fault):
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    sidecar = run / "model.gtpa.json"
    meta = json.loads(sidecar.read_text())
    meta["config"][key] = value
    sidecar.write_text(json.dumps(meta))
    assert main(["eval", "--model", str(run),
                 "--data", str(pipeline["data"] / "test.jsonl")]) == 1
    assert capsys.readouterr() == ("", f"error: {sidecar}: {fault}\n")


@pytest.mark.parametrize("in_config, key, value, fault", [
    (False, "char_vocab_size", 29.0, "char_vocab_size must be an integer, got 29.0"),
    (False, "n_classes", True, "n_classes must be an integer, got True"),
    (False, "n_timezones", 0, "n_timezones must be >= 1, got 0"),
    (True, "removed_features", "timezone",
     "removed_features must be a list of feature names, got 'timezone'"),
], ids=["float-vocab", "bool-vocab", "empty-vocab", "text-features"])
def test_sidecar_vocabulary_size_or_feature_list_of_the_wrong_type_is_named(
        pipeline, tmp_path, capsys, in_config, key, value, fault):
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    sidecar = run / "model.gtpa.json"
    meta = json.loads(sidecar.read_text())
    (meta["config"] if in_config else meta)[key] = value
    sidecar.write_text(json.dumps(meta))
    assert main(["eval", "--model", str(run),
                 "--data", str(pipeline["data"] / "test.jsonl")]) == 1
    assert capsys.readouterr() == ("", f"error: {sidecar}: {fault}\n")


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_training_split_of_only_short_texts_names_its_file(
        pipeline, tmp_path, capsys, command):
    records = [json.loads(line) for line in
               (pipeline["data"] / "train.jsonl").read_text().splitlines()]
    short = tmp_path / "train.jsonl"
    short.write_text("".join(json.dumps({**r, "text": r["text"][:4]}) + "\n"
                             for r in records), encoding="utf-8")
    out = tmp_path / "run"
    argv = [command, *_train_argv(pipeline["data"], out, train=short)[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {short}: no record has a text of at least 5 characters\n")
    assert not out.exists()
