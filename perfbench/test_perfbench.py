"""Tests of the benchmark itself (not part of the program's suite).

Run from the repository root::

    python3 -m pytest perfbench -q

The slow tests run each workload once at its shortest: one untraced
and one traced campaign (under a minute in all on two cores).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


# ----------------------------------------------------------------------
# The declared benchmark matches the harness
# ----------------------------------------------------------------------

def test_benchmark_json_names_the_harness_metrics_and_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert _declared("end_to_end") == bench_run.END_TO_END
    assert _declared("per_layer") == bench_run.PER_LAYER


# ----------------------------------------------------------------------
# Output checks reject wrong outputs
# ----------------------------------------------------------------------

def _curve(recovered_at: int, n: int = 24576, step: int = 4096) -> list:
    return [
        [cp, float(cp).hex(), float(cp + 1).hex(), cp >= recovered_at]
        for cp in range(step, n + 1, step)
    ]


def _cpa_record(curve) -> dict:
    return {"outputs": {"P6": curve}, "digest": "ab" * 32, "key_time": 1.0}


def test_check_accepts_a_consistent_run():
    workload = WORKLOADS["stream-single-cold"]
    record = _cpa_record(_curve(16384))
    assert bench_run.check_outputs(workload, record, record) == []


def test_check_rejects_a_perturbed_digest():
    workload = WORKLOADS["stream-single-cold"]
    reference = _cpa_record(_curve(16384))
    perturbed = copy.deepcopy(reference)
    perturbed["digest"] = "0" + reference["digest"][1:]
    reasons = bench_run.check_outputs(workload, perturbed, reference)
    assert any("digest differs" in r for r in reasons)


def test_check_rejects_a_campaign_that_never_recovers_the_key():
    workload = WORKLOADS["stream-single-cold"]
    record = _cpa_record(_curve(10**9))
    record["key_time"] = None
    reasons = bench_run.check_outputs(workload, record, None)
    assert any("did not recover" in r for r in reasons)
    assert any("no recovered keyrank" in r for r in reasons)


def test_check_rejects_a_region_that_does_not_sense_the_virus():
    workload = WORKLOADS["characterize-regions"]
    points = [[i, float(40 if i == 2 else 30).hex(), float(20).hex()] for i in range(1, 7)]
    record = {"outputs": {"LeakyDSP": points}, "digest": "x"}
    assert bench_run.check_outputs(workload, record, record) == []
    record["outputs"]["LeakyDSP"][4][2] = float(40).hex()
    reasons = bench_run.check_outputs(workload, record, record)
    assert any("not sensed" in r for r in reasons)


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_run(request):
    """One workload at its shortest: one campaign plus one traced one."""
    return bench_run.bench(
        request.param, seed=0, seconds=0, trace=True, min_campaigns=1,
        log=lambda *a, **k: None,
    )


def test_tiny_run_emits_every_declared_metric_with_its_unit(tiny_run):
    assert tiny_run["correct"], tiny_run
    assert tiny_run["failed_frac"] == 0.0
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = bench_run.contract_line(tiny_run, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == _declared(section)
    for name, value in tiny_run["metrics"].items():
        assert value > 0, name
    env = tiny_run["env"]
    for key in ("nproc", "cpu_count", "python", "numpy", "blas_threads",
                "backend", "csampler_built", "commit"):
        assert key in env


def test_traced_campaign_counts_worker_side_calls():
    """At 2 workers, kernel and CPA calls made in pool workers reach
    the traced report although workers exit through ``os._exit``."""
    tmp = bench_run.WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    trace_dir = Path(tempfile.mkdtemp(dir=bench_run.WORK))
    try:
        record, _, err = bench_run.spawn(
            {"workload": "stream-single-cold", "seed": 0, "trace_dir": str(trace_dir)},
            bench_run.child_env(tmp),
        )
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    assert record is not None, err
    parent, *workers = record["processes"]
    assert len(workers) == 2
    for proc in workers:
        assert proc["pid"] != parent["pid"]
        assert proc["counts"].get("kernels.acquire.calls", 0) > 0
        assert proc["counts"].get("cpa.add_traces.calls", 0) > 0
    assert parent["counts"].get("kernels.acquire.calls", 0) == 0
    assert parent["counts"].get("keyrank.eval.calls", 0) > 0


def test_run_fails_without_printing_a_result_when_the_program_is_absent():
    bench_run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench_run.WORK) as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stream-single-cold",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
