"""geotweet benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the root of a geotweet source tree; the program is imported from
``src/``. Set-up generates the corpus with ``geotweet synth`` (plus, for
``hash-retrieve``, trains the hashing model); it opens every pass, so its
median time is taken across the run. Passes of CLI commands run through
``geotweet.cli.main`` for about S seconds, set-up included, and each command
is timed from outside the program.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` an untraced and a traced measurement each
get half the time, and the result carries the per-layer metrics of
BENCHMARK.json, including ``overhead.<metric>``: traced minus untraced value
of each end-to-end metric.

Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit code
is 1 when any check failed.
"""

from __future__ import annotations

import os

# BLAS threads must be fixed before numpy is first imported. One thread (of
# at most nproc): on a small shared machine a second BLAS thread made run-to-run
# times spread wider without making the paper-scale step faster.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# On a small shared machine speed changes every few seconds, so each figure is
# measured over the whole run: every pass opens with a set-up slot (set-up
# repeated until SETUP_SLOT_S have gone), runs `train` once, and repeats eval
# and the hash pair until each took COMMAND_MIN_S. `retrieve` runs once a pass:
# its figure has no regression bound (see README.md). A throughput is the work
# of all its commands in the run divided by their summed wall time: speed jumps
# between a fast and a slow level, so a median of per-command throughputs
# jumps with it, where the sum moves with the share of slow time. setup_s is
# the median of the run's set-ups.
SETUP_SLOT_S = 0.5
COMMAND_MIN_S = 1.0
RETRIEVE_SAMPLE_QUERIES = 8
# Largest share of a traced training step that no span may account for.
MAX_STEP_RESIDUAL_SHARE = 0.10
END_TO_END = ("setup_s", "train_ex_per_s", "eval_ex_per_s", "encode_ex_per_s",
              "retrieve_q_per_s", "peak_rss_mb")


def import_program():
    """Import geotweet from this tree's src/, never from anywhere else."""
    if not (SRC / "geotweet" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'geotweet'} not found; run from the root "
                         "of a geotweet source tree")
    sys.path.insert(0, str(SRC))
    import geotweet.cli
    if Path(geotweet.cli.__file__).resolve().parent != (SRC / "geotweet").resolve():
        raise SystemExit(f"error: geotweet imported from {geotweet.cli.__file__}, "
                         f"not from {SRC}")
    return geotweet


def summary(values):
    """Median plus the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for p in (99.9, 99, 90, 75):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[round(p * 10) - 1]
            break
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(np, workload, seed, size):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "size": size,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "git_commit": git_commit(),
    }


class Bench:
    """One workload at one seed: runs commands, times them, checks outputs."""

    def __init__(self, geotweet, workload, seed, smoke, work):
        import numpy as np
        self.np = np
        self.gt = geotweet
        self.wl = workload
        self.seed = seed
        self.smoke = smoke
        self.corpus = workload.smoke_corpus if smoke else workload.corpus
        self.work = work
        self.data = work / "data"
        self.run_dir = work / "run"
        self.codes = {split: work / f"{split}.codes" for split in ("dev", "test")}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.quality = {}

    # --- commands and checks -----------------------------------------------

    def command(self, argv, check=None):
        """Run one CLI command; return (seconds, stdout) or None if it failed.

        ``check(stdout)`` raises AssertionError when the output is wrong.
        """
        self.attempted += 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                start = perf_counter()
                code = self.gt.cli.main([str(a) for a in argv])
                seconds = perf_counter() - start
            if code != 0:
                raise AssertionError(f"exit code {code}")
            if check is not None:
                check(buf.getvalue())
        except Exception as e:  # counted and reported; measuring stops after the pass
            self.failed += 1
            detail = "".join(traceback.format_exception_only(type(e), e)).strip()
            self.failures.append(f"{argv[0]}: {detail}")
            if not isinstance(e, AssertionError):
                traceback.print_exc(file=sys.stderr)
            return None
        return seconds, buf.getvalue()

    def fail(self, what):
        self.failed += 1
        self.attempted += 1
        self.failures.append(what)

    @staticmethod
    def field(stdout, key):
        for line in stdout.splitlines():
            parts = line.split("\t")
            if parts[0] == key:
                return float(parts[1])
        raise AssertionError(f"no {key!r} line in output")

    @staticmethod
    def finite(value, what):
        if not math.isfinite(value):
            raise AssertionError(f"{what} is not finite: {value}")
        return value

    def remember(self, key, value):
        """Quality figures are deterministic for a seed: every pass must agree."""
        if key in self.quality and self.quality[key] != value:
            raise AssertionError(f"{key} changed between passes: "
                                 f"{self.quality[key]} then {value}")
        self.quality[key] = value

    def check_train(self, deep):
        def check(_stdout):
            report = json.loads((self.run_dir / "report.json").read_text())
            for acc in report["dev_accuracy"]:
                self.finite(acc, "dev accuracy")
            if deep:
                params = self.gt.archive.load_archive(self.run_dir / "model.gtpa")
                bad = [k for k, v in params.items() if not self.np.isfinite(v).all()]
                if bad:
                    raise AssertionError(f"non-finite parameters after train: {bad[:3]}")
        return check

    def check_eval(self, _deep):
        def check(stdout):
            accuracy = self.finite(self.field(stdout, "accuracy"), "accuracy")
            if not 0.0 <= accuracy <= 1.0:
                raise AssertionError(f"accuracy {accuracy} outside [0, 1]")
            self.remember("test_accuracy", accuracy)
        return check

    def check_codes(self, deep, split):
        """The written .codes file equals the CodeSet the public API computes."""
        def check(_stdout):
            if not deep:
                return
            cli, hashing = self.gt.cli, self.gt.hashing
            model, _, cv, tv, lv = cli.load_model_dir(self.run_dir)
            examples = cli.encode_records(
                self.gt.corpus.read_jsonl(self.data / f"{split}.jsonl"),
                cv, tv, lv, model.config)
            expected = hashing.encode_code_set(model, examples)
            path = self.codes[split]
            got = hashing.load_codes(path)
            for name in ("bits", "ids", "labels"):
                if not self.np.array_equal(getattr(got, name), getattr(expected, name)):
                    raise AssertionError(f"{path.name}: {name} differ from the "
                                         "in-memory CodeSet")
        return check

    def check_retrieve(self, deep):
        """MAP is sane, and sampled rankings match a brute-force sort."""
        def check(stdout):
            mean_ap = self.finite(self.field(stdout, "map"), "map")
            if not 0.0 < mean_ap <= 1.0:
                raise AssertionError(f"map {mean_ap} outside (0, 1]")
            self.remember("map", mean_ap)
            if not deep:
                return
            hashing = self.gt.hashing
            test = hashing.load_codes(self.codes["test"])
            dev = hashing.load_codes(self.codes["dev"])
            step = max(1, len(test) // RETRIEVE_SAMPLE_QUERIES)
            for q in range(0, len(test), step):
                distances = (dev.bits != test.bits[q]).sum(axis=1)
                expected = sorted(zip(distances.tolist(), dev.ids.tolist()))
                got = hashing.retrieve(test.bits[q], dev)
                if got.tolist() != [i for _, i in expected]:
                    raise AssertionError(f"retrieve disagrees with brute force "
                                         f"for query {q}")
        return check

    # --- protocol ------------------------------------------------------------

    def timed(self, samples, metric, commands, work, min_s, deep):
        """Run ``commands`` (argv, check factory) as one unit, again and again
        until ``min_s`` seconds were spent in them; each round adds
        ``(work(stdout of the last command), seconds)`` to ``samples[metric]``.
        Only the first round checks in depth."""
        spent = 0.0
        while not self.failed:
            seconds = 0.0
            for argv, make_check in commands:
                done = self.command(argv, make_check(deep))
                if done is None:
                    return
                seconds += done[0]
            spent += seconds
            samples[metric].append((work(done[1]), seconds))
            deep = False
            if spent >= min_s:
                return

    def setup_slot(self, samples, deep):
        """Set up (generate the corpus; for hash-retrieve also train the model)
        until SETUP_SLOT_S have gone; each set-up adds one setup_s sample."""
        spent = 0.0
        while spent < SETUP_SLOT_S and not self.failed:
            start = perf_counter()
            self.command(self.corpus.synth_argv(self.data, self.seed))
            if self.wl.train_in_setup:
                self.train(samples, deep)
            seconds = perf_counter() - start
            samples["setup_s"].append(seconds)
            spent += seconds
            deep = False

    def train(self, samples, deep):
        argv = self.wl.train_argv(self.data, self.run_dir, self.seed, self.smoke)
        epochs = int(argv[argv.index("--epochs") + 1])
        self.timed(samples, "train_ex_per_s", [(argv, self.check_train)],
                   lambda _: self.corpus.train * epochs, 0.0, deep)

    def one_pass(self, samples, deep):
        if not self.wl.train_in_setup:
            self.train(samples, deep)
        self.timed(samples, "eval_ex_per_s",
                   [(["eval", "--model", self.run_dir, "--data",
                      self.data / "test.jsonl"], self.check_eval)],
                   lambda _: self.corpus.test, COMMAND_MIN_S, deep)
        self.timed(samples, "encode_ex_per_s",
                   [(["hash", "--model", self.run_dir, "--data",
                      self.data / f"{split}.jsonl", "--out", path],
                     lambda deep, split=split: self.check_codes(deep, split))
                    for split, path in self.codes.items()],
                   lambda _: self.corpus.dev + self.corpus.test, COMMAND_MIN_S, deep)
        self.timed(samples, "retrieve_q_per_s",
                   [(["retrieve", "--test-codes", self.codes["test"],
                      "--dev-codes", self.codes["dev"]], self.check_retrieve)],
                   lambda stdout: self.field(stdout, "queries"), 0.0, deep)

    def measure(self, seconds, tracer=None):
        """Run passes for about ``seconds`` seconds, set-up included.

        Untraced, every pass opens with a set-up slot, so that set-up is timed
        across the run like everything else. Traced, set-up runs only once,
        before the passes: the per-layer figures cover the passes alone, and
        on hash-retrieve they must not include training. The first set-up and
        pass check outputs in depth, except under a tracer, whose figures must
        not include the checks. They also warm up: when later passes measure
        a throughput again, its samples from before the second pass are
        dropped (a cold paper-scale `train` took 50% longer, mostly in page
        faults). Returns (end-to-end values, raw samples, passes); a
        throughput sample is a (work, seconds) pair."""
        samples = {name: [] for name in END_TO_END}
        deadline = perf_counter() + seconds
        if tracer is not None:
            tracer.install()
        try:
            self.setup_slot(samples, deep=tracer is None)
            if tracer is not None:
                tracer.reset()
            # a pass starts only if it should end less than half a pass (as
            # long as the last one) after the deadline, so runs average S s
            passes, last, warm = 0, 0.0, {}
            while passes == 0 or (perf_counter() + last / 2 <= deadline
                                  and not self.failed):
                start = perf_counter()
                if passes and tracer is None:
                    self.setup_slot(samples, deep=False)
                self.one_pass(samples, deep=tracer is None and passes == 0)
                last = perf_counter() - start
                passes += 1
                if passes == 1:
                    warm = {k: len(v) for k, v in samples.items() if k != "setup_s"}
        finally:
            if tracer is not None:
                tracer.remove()
        for name, n in warm.items():
            if len(samples[name]) > n:
                del samples[name][:n]
        samples["peak_rss_mb"].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        values = {}
        for name, v in samples.items():
            if not v:
                continue
            if isinstance(v[0], tuple):
                values[name] = sum(w for w, _ in v) / sum(s for _, s in v)
            else:
                values[name] = statistics.median(v)
        return values, samples, passes

    def check_floors(self):
        if self.smoke:
            return
        for key, floor in (("test_accuracy", self.wl.accuracy_floor),
                           ("map", self.wl.map_floor)):
            value = self.quality.get(key)
            if floor is not None and (value is None or value < floor):
                self.fail(f"{key} {value} below the floor {floor}")


def per_layer_metrics(bench, tracer, untraced, traced, passes):
    m = tracer.metrics(passes)
    for name, values in tracer.counts().items():
        if len(values) > 1:
            bench.fail(f"{name} is not exact: saw {values}")
    bad_losses = [x for x in tracer.losses if not math.isfinite(x)]
    if bad_losses:
        bench.fail(f"{len(bad_losses)} non-finite training losses")
    if m["trainer.step_residual_share"] > MAX_STEP_RESIDUAL_SHARE:
        bench.fail(f"spans cover only {1 - m['trainer.step_residual_share']:.1%} "
                   "of the traced step time")
    for name in END_TO_END:
        if name in untraced and name in traced:
            m[f"overhead.{name}"] = traced[name] - untraced[name]
    m["trainer.test_accuracy"] = bench.quality.get("test_accuracy", 0.0)
    m["hashing.map"] = bench.quality.get("map", 0.0)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    geotweet = import_program()
    import geotweet.archive  # noqa: F401  (used by the train check)
    import geotweet.hashing  # noqa: F401
    import numpy as np
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    bench = Bench(geotweet, workload, args.seed, args.size == "smoke", work)
    env = environment(np, args.workload, args.seed, args.size)
    try:
        if args.trace:
            half = args.seconds / 2
            untraced, _, _ = bench.measure(half)
            tracer = Tracer()
            traced, samples, passes = bench.measure(half, tracer=tracer)
            metrics = per_layer_metrics(bench, tracer, untraced, traced, passes)
            wanted = spec["per_layer"]
        else:
            metrics, samples, passes = bench.measure(args.seconds)
            wanted = spec["end_to_end"]
        bench.check_floors()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    result = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            bench.fail(f"metric {name} was not measured")
            continue
        result[name] = {"value": metrics[name], "unit": entry["unit"]}
    for name, value in sorted(metrics.items()):
        print(f"{name}\t{value:.6g}")
    correct = bench.failed == 0
    record = {
        "env": env, "passes": passes,
        "summaries": {k: summary([x[0] / x[1] if isinstance(x, tuple) else x
                                  for x in v])
                      for k, v in samples.items() if v},
        "quality": bench.quality,
        "failed_share": bench.failed / max(1, bench.attempted),
        "failures": bench.failures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
