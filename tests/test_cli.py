import json
import shutil
from collections import Counter

import numpy as np
import pytest

from geotweet.cli import main, read_config_file
from geotweet import hashing as H
from geotweet.rbf_net import RbfNetwork

from conftest import graph_nodes


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
    expected, _ = H.map_eval(model, dev_ex, test_ex)
    assert reported == pytest.approx(expected, abs=5e-7)


def test_lsh_codes_written(pipeline):
    out = pipeline["root"] / "lsh.bin"
    assert main(["lsh", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "dev.jsonl"),
                 "--bits", "32", "--out", str(out), "--seed", "1"]) == 0
    codes = H.load_codes(out)
    assert codes.width == 32 and len(codes) == 60


def test_attn_reports_spans(pipeline, capsys):
    assert main(["attn", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "test.jsonl"),
                 "--top-k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("example\trank")
    assert len(lines) == 1 + 2 * 60


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
    assert len(nodes) > 5


def test_hist_reports_masses(pipeline, capsys):
    assert main(["hist", "--model", str(pipeline["run"]),
                 "--data", str(pipeline["data"] / "test.jsonl"),
                 "--bins", "10"]) == 0
    out = capsys.readouterr().out
    assert "mass_middle" in out and "mass_high_extreme" in out


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


def test_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["eval", "--model", str(tmp_path / "nope"),
                 "--data", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_jsonl_reports_line(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    assert main(["eval", "--model", str(pipeline["run"]),
                 "--data", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("line, message", [
    ("epoch = 1", "unknown key 'epoch' for 'synth'"),
    ("informative-text = maybe",
     "informative_text must be one of true/false/yes/no/1/0, got 'maybe'"),
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


def test_train_message_only_defaults(tmp_path, pipeline):
    # message-only preset selects the wider text output
    from geotweet.cli import build_parser, model_config_from_args
    args = build_parser().parse_args(
        ["train", "--train", "x", "--dev", "y", "--out", "z",
         "--feature-set", "message-only"])
    cfg = model_config_from_args(args)
    assert (cfg.text_emb_size, cfg.text_window, cfg.text_out_size) == (200, 10, 600)
    assert cfg.active_features() == ("text",)
