"""Tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return code, result, record


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(run.END_TO_END)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(capsys, workload):
    code, result, record = bench(capsys, workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["env"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "mem_total_mb",
                "git_commit", "seed"):
        assert key in env
    assert record["failed_share"] == 0.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_counts_repeat(capsys, workload):
    first = bench(capsys, workload, trace=1)
    second = bench(capsys, workload, trace=1)
    for code, result, _ in (first, second):
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("autodiff.nodes_per_step", "autodiff.matmul_calls_per_step",
                 "autodiff.eval_graph_nodes_per_batch", "hashing.candidates_per_query"):
        assert first[1]["metrics"][name] == second[1]["metrics"][name], name
    metrics = first[1]["metrics"]
    assert metrics["hashing.candidates_per_query"]["value"] > 0
    assert metrics["autodiff.eval_graph_nodes_per_batch"]["value"] > 0
    if WORKLOADS[workload].train_in_setup:
        # the timed part of hash-retrieve never runs backward or Adam
        for name in ("autodiff.backward_s", "autodiff.nodes_per_step", "optim.step_s"):
            assert metrics[name]["value"] == 0, name
    else:
        assert metrics["autodiff.nodes_per_step"]["value"] > 0


def test_missing_wrapper_target_is_named(monkeypatch):
    table = tracing.WRAPPED + (("x", "geotweet.hashing", "retrieve_renamed", tracing.PHASE),)
    monkeypatch.setattr(tracing, "WRAPPED", table)
    run.import_program()
    tracer = tracing.Tracer()
    with pytest.raises(tracing.MissingTarget, match="geotweet.hashing.retrieve_renamed"):
        tracer.install()
    assert tracer.installed == []


def test_wrappers_are_removed(capsys):
    geotweet = run.import_program()
    before = geotweet.autodiff.Tensor.backward
    bench(capsys, "train-synthetic", trace=1)
    assert geotweet.autodiff.Tensor.backward is before


def test_fails_without_program(tmp_path):
    """In a tree holding only the benchmark there is no result and no exit 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-synthetic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not found" in proc.stderr
