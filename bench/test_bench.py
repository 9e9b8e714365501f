"""Tests of the benchmark itself (not of clusterexp).

    python3 -m pytest bench/test_bench.py

They run every workload at tiny size, traced and untraced, check that
BENCHMARK.json and the benchmark's own metric tables agree, and show that a
corrupted expected value is counted as a failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import oracles  # noqa: E402
import run as bench_run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=REPO):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(name, w.why) for name, w in WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.LAYER_METRICS]
    assert all(m["better"] == "lower" for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_expected_value_is_counted(monkeypatch, capsys):
    corrupted = list(oracles.MAYER_4X4_HARD_CORE)
    corrupted[1] += 1
    monkeypatch.setattr(oracles, "MAYER_4X4_HARD_CORE", tuple(corrupted))
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(bench_run, "ROOT", REPO)
    monkeypatch.setattr(bench_run, "SRC", os.path.join(REPO, "src"))
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = bench_run.run(bench_run.parse_args(
        ["--workload", "lattice-series", "--seed", "3", "--seconds", "0.2", "--tiny"]))
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] > 1 and "wall_s" in result["metrics"]


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "ising-box", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_time_excludes_child_spans_and_leaves():
    tracer = Tracer()
    leaf = tracer.leaf("leaf", lambda: time.sleep(0.02))
    inner = tracer.span("inner", lambda: time.sleep(0.03))

    def outer_body():
        inner()
        leaf()
        time.sleep(0.01)

    tracer.span("outer", outer_body)()
    spans = {s["name"]: s for s in tracer.dump()["spans"]}
    assert spans["inner"]["parent"] == 0 and spans["outer"]["parent"] == -1
    calls, leaf_s = tracer.leaves["setup"]["leaf"]
    assert calls == 1 and leaf_s >= 0.02
    outer = spans["outer"]
    assert outer["self"] == pytest.approx(outer["dur"] - spans["inner"]["dur"] - leaf_s)
    assert outer["self"] >= 0.01
