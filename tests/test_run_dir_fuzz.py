"""Truncations and byte flips of every file in a run directory and of a code
file: each either loads or raises a ValueError that names the file."""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geotweet import hashing as H
from geotweet.cli import load_model_dir, main

RUN_FILES = ("model.gtpa", "model.gtpa.json", "char_vocab.txt",
             "timezones.txt", "labels.txt")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "data", root / "run"
    assert main(["synth", "--out", str(data), "--cities", "3",
                 "--train-size", "60", "--dev-size", "12", "--test-size", "4",
                 "--seed", "2"]) == 0
    assert main(["train", "--train", str(data / "train.jsonl"),
                 "--dev", str(data / "dev.jsonl"), "--out", str(run),
                 # tiny sizes, so that headers are a large share of the archive
                 "--text-max-len", "6", "--text-emb-size", "2",
                 "--text-window", "2", "--text-out-size", "2",
                 "--time-bins", "2", "--offset-bins", "2", "--account-bins", "2",
                 "--timezone-emb-size", "2", "--loc-max-len", "4",
                 "--loc-emb-size", "2", "--loc-span", "2", "--loc-out-size", "2",
                 "--penultimate-dim", "8", "--epochs", "1",
                 "--min-char-count", "1", "--seed", "2"]) == 0
    assert main(["hash", "--model", str(run), "--data",
                 str(data / "dev.jsonl"), "--out", str(run / "dev.codes")]) == 0
    load_model_dir(run)
    H.load_codes(run / "dev.codes")
    return run


def load(run, name):
    if name.endswith(".codes"):
        H.load_codes(run / name)
    else:
        load_model_dir(run)


@st.composite
def corruptions(draw, original):
    """A strict prefix of ``original``, or ``original`` with one byte flipped."""
    if draw(st.booleans()):
        return original[:draw(st.integers(0, len(original) - 1))]
    pos = draw(st.integers(0, len(original) - 1))
    flipped = original[pos] ^ draw(st.integers(1, 255))
    return original[:pos] + bytes([flipped]) + original[pos + 1:]


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(RUN_FILES + ("dev.codes",)), data=st.data())
def test_corrupt_file_loads_or_is_named(run_dir, name, data):
    path = run_dir / name
    original = path.read_bytes()
    path.write_bytes(data.draw(corruptions(original), label="content"))
    try:
        load(run_dir, name)
    except ValueError as e:
        # the path itself, not only as the prefix of a longer name
        assert re.search(re.escape(str(path)) + r"(?![\w.])", str(e)), str(e)
    finally:
        path.write_bytes(original)
