"""Workload definitions for the geotweet benchmark.

Every workload is a closed loop with one client: the benchmark runs one CLI
command at a time through ``geotweet.cli.main`` in its own process and starts
the next one only after the previous one returned. The corpora are
generated from the workload seed by the ``synth`` subcommand during set-up;
the timed commands only ever see the JSONL files it wrote.

Each pass of a workload runs ``train`` (train workloads only), ``eval`` on
the test split, ``hash`` on dev (the index) and on test (the queries), and
``retrieve``. All three workloads therefore report every end-to-end metric;
what differs is where the time goes, as each ``why`` records.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Corpus:
    """Arguments of ``geotweet synth`` (the seed comes from the command line)."""

    cities: int
    train: int
    dev: int
    test: int
    uninformative_location: bool = False

    def synth_argv(self, out, seed):
        argv = ["synth", "--out", str(out), "--cities", str(self.cities),
                "--train-size", str(self.train), "--dev-size", str(self.dev),
                "--test-size", str(self.test), "--seed", str(seed)]
        if self.uninformative_location:
            argv.append("--uninformative-location")
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: Corpus
    smoke_corpus: Corpus
    # flags for `geotweet train` besides the file paths and the seed
    train_flags: tuple
    epochs: int
    batch_size: int
    # True: `train` runs once per set-up and is not part of a timed pass
    train_in_setup: bool
    # floors checked on the full-size corpus; None means no floor
    accuracy_floor: float | None
    map_floor: float | None

    def train_argv(self, data, run_dir, seed, smoke=False):
        epochs = 1 if smoke else self.epochs
        return ["train", "--train", str(data / "train.jsonl"),
                "--dev", str(data / "dev.jsonl"), "--out", str(run_dir),
                "--batch-size", str(self.batch_size), "--epochs", str(epochs),
                "--seed", str(seed), *self.train_flags]


# Why each workload exists. Node and matmul counts are the benchmark's own
# traced counts; the eval memory figures are single measurements of peak RSS
# on a 2-core x86 machine with numpy 2.4.6.
TRAIN_SYNTHETIC_WHY = (
    "synthetic scale (E=16, T=40): 1,474 graph nodes of tiny arrays per step, so "
    "per-node Python and numpy-call overhead dominates and BLAS barely works; "
    "no location signal keeps accuracy ~0.4")
TRAIN_PAPER_WHY = (
    "paper scale (T=300, E=200): 10,844 nodes and 1,206 matmuls per step, BLAS- "
    "and memory-bound; eval-mode forward keeps its graph: peak RSS 0.40/0.74/1.42 "
    "GB at eval batch 8/16/32")
HASH_RETRIEVE_WHY = (
    "hashing model trained in set-up; timed part is forward-only inference, a "
    ".codes write and read, and Python-loop Hamming ranking and AP, with no "
    "Tensor.backward or Adam")

WORKLOADS = {
    "train-synthetic": Workload(
        name="train-synthetic",
        why=TRAIN_SYNTHETIC_WHY,
        corpus=Corpus(cities=20, train=4000, dev=500, test=1000,
                      uninformative_location=True),
        smoke_corpus=Corpus(cities=4, train=200, dev=40, test=40,
                            uninformative_location=True),
        train_flags=("--synthetic-scale",),
        epochs=2,
        batch_size=128,
        train_in_setup=False,
        accuracy_floor=0.2,
        map_floor=0.15,
    ),
    "train-paper": Workload(
        name="train-paper",
        why=TRAIN_PAPER_WHY,
        # Eval batches stay small: eval-mode forward keeps the whole graph.
        # Three cities, so that every dev/test city occurs in the 32 training
        # records for any seed (a miss has odds ~6e-6): `eval` rejects labels
        # unseen in training. With 5 cities seed 112 hit that.
        corpus=Corpus(cities=3, train=32, dev=8, test=16),
        smoke_corpus=Corpus(cities=2, train=16, dev=4, test=4),
        train_flags=(),
        epochs=1,
        batch_size=32,
        train_in_setup=False,
        accuracy_floor=None,
        map_floor=None,
    ),
    "hash-retrieve": Workload(
        name="hash-retrieve",
        why=HASH_RETRIEVE_WHY,
        corpus=Corpus(cities=20, train=2000, dev=3000, test=1000),
        smoke_corpus=Corpus(cities=4, train=200, dev=80, test=40),
        # the raised learning rate makes two short epochs enough for useful
        # codes; at the default 0.001 test accuracy is still ~0.43
        train_flags=("--synthetic-scale", "--hashing", "--penultimate-dim",
                     "100", "--learning-rate", "0.005"),
        epochs=2,
        batch_size=128,
        train_in_setup=True,
        accuracy_floor=0.9,
        map_floor=0.8,
    ),
}
