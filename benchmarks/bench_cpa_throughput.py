"""Bench: raw CPA engine throughput (traces/second accumulated).

Not a paper figure — a performance benchmark of the CPA engine that
stands in for the paper's GPU CPA tool [8], at the shape a campaign
feeds it (4096-trace shards of 195 samples), useful for tracking
regressions in the accumulator hot path.  Both accumulate engines are
timed — ``batched`` (the native conditional-sum kernel) and
``per-byte`` (the 16-GEMM reference path) — and their correlations
are asserted bit-identical before the numbers are trusted.  The
batched engine's first call in a process (kernel resolution: dlopen,
tables, self-test) is timed on its own, since every pool worker pays
it once.  One checkpoint's key-rank evaluation
(:func:`repro.attacks.metrics.evaluate_rank_point`: the fused peak pass
plus the rank bounds, which a streamed campaign runs in the parent per
sensor and checkpoint) is timed on the same 4096x195 attack state, split
into its two parts.  Records machine-readable numbers (traces/second per
engine, the batched speedup, the first call, correlation evaluations per
second, the key-rank split, ``cpu_count``, peak RSS) in
``BENCH_cpa.json`` next to ``BENCH_acquisition.json``;
``scripts/check_cpa_regression.py`` gates CI on the speedup.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.attacks.cpa import CPAAttack, hypothesis_table
from repro.attacks.key_rank import key_rank_bounds, scores_from_correlations
from repro.attacks.metrics import evaluate_rank_point
from repro.kernels import _csampler
from repro.victims.aes.key_schedule import expand_key
from conftest import full_scale, run_once

N_TRACES, N_SAMPLES = 4096, 195
N_ROUNDS = 10 if full_scale() else 6
#: The last-round key the key-rank evaluations rank.
TRUE_LAST_ROUND = expand_key(bytes(range(16)))[10]
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_cpa.json"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss if sys.platform == "darwin" else maxrss * 1024


@pytest.fixture(scope="module")
def trace_batch():
    rng = np.random.default_rng(0)
    traces = rng.integers(0, 48, size=(N_TRACES, N_SAMPLES)).astype(np.int16)
    cts = rng.integers(0, 256, size=(N_TRACES, 16), dtype=np.uint8)
    hypothesis_table()  # the per-byte engine's table, outside any timing
    return traces, cts


def _accumulate(traces, cts, mode):
    attack = CPAAttack(traces.shape[1], accumulate=mode)
    attack.add_traces(traces, cts)
    return attack


def test_cpa_accumulate_throughput(benchmark, trace_batch):
    traces, cts = trace_batch

    attack = benchmark(_accumulate, traces, cts, "batched")
    benchmark.extra_info["traces_per_round"] = traces.shape[0]
    assert attack.n_traces == traces.shape[0]


def test_cpa_accumulate_per_byte_throughput(benchmark, trace_batch):
    traces, cts = trace_batch

    attack = benchmark(_accumulate, traces, cts, "per-byte")
    benchmark.extra_info["traces_per_round"] = traces.shape[0]
    assert attack.n_traces == traces.shape[0]


def test_cpa_correlation_evaluation(benchmark, trace_batch):
    traces, cts = trace_batch
    attack = CPAAttack(traces.shape[1])
    attack.add_traces(traces, cts)

    def correlate():
        # Time the finalize, not the accumulator's memo hit.
        attack._stacked._rho = None
        return attack.correlations()

    rho = benchmark(correlate)
    assert rho.shape == (16, 256, traces.shape[1])
    assert np.all(np.abs(rho) <= 1.0 + 1e-9)


def test_cpa_rank_evaluation(benchmark, trace_batch):
    traces, cts = trace_batch
    attack = CPAAttack(traces.shape[1])
    attack.add_traces(traces, cts)

    def evaluate():
        attack._derived.clear()  # time the peak pass, not the memo hit
        return evaluate_rank_point(attack, TRUE_LAST_ROUND, attack.n_traces)

    point = benchmark(evaluate)
    assert 0.0 <= point.log2_lower <= point.log2_upper <= 128.0


def test_cpa_throughput_report(benchmark, trace_batch):
    """Drive both accumulate engines and the correlation path directly
    (one unmeasured warm-up plus ``N_ROUNDS`` measured rounds each) and
    write ``BENCH_cpa.json``.

    Throughput is reported from the per-round *minimum* — the least
    load-sensitive estimator — alongside plain totals, matching
    ``BENCH_acquisition.json``.
    """
    traces, cts = trace_batch

    # The first batched call of a fresh process: resolve the kernel again.
    _csampler._reset()
    t0 = time.perf_counter()
    _accumulate(traces, cts, "batched")
    first_call = time.perf_counter() - t0

    def timed_rounds(fn):
        fn()  # warm-up: scratch pages, BLAS threads
        seconds = []
        for _ in range(N_ROUNDS):
            t0 = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - t0)
        return seconds

    def engine_stats(mode):
        seconds = timed_rounds(lambda: _accumulate(traces, cts, mode))
        return {
            "seconds_per_round": sum(seconds) / N_ROUNDS,
            "best_seconds_per_round": min(seconds),
            "traces_per_second": N_ROUNDS * N_TRACES / sum(seconds),
            "best_traces_per_second": N_TRACES / min(seconds),
        }

    batched_stats = engine_stats("batched")
    per_byte_stats = engine_stats("per-byte")

    attack = _accumulate(traces, cts, "batched")
    reference = _accumulate(traces, cts, "per-byte")
    # The speedup only counts if the engines agree bit for bit.
    assert np.array_equal(attack.correlations(), reference.correlations())

    def correlate():
        attack._stacked._rho = None
        return attack.correlations()

    correlate_seconds = timed_rounds(correlate)

    def peaks():
        attack._derived.clear()
        return attack.peak_correlations()

    def evaluate():
        attack._derived.clear()
        return evaluate_rank_point(attack, TRUE_LAST_ROUND, attack.n_traces)

    scores = scores_from_correlations(peaks(), attack.n_traces)
    eval_seconds = timed_rounds(evaluate)
    peak_seconds = timed_rounds(peaks)
    bound_seconds = timed_rounds(lambda: key_rank_bounds(scores, TRUE_LAST_ROUND))
    # The fused peak pass only counts if it equals the full stack's peak.
    assert np.array_equal(peaks(), np.abs(attack.correlations()).max(axis=2))

    report = {
        "config": {
            "n_traces": N_TRACES,
            "n_samples": N_SAMPLES,
            "n_rounds": N_ROUNDS,
            "cpu_count": os.cpu_count(),
        },
        "accumulate": dict(
            batched_stats,
            first_call_seconds=first_call,
            engine="+".join(sorted(attack.fold_engines)),
        ),
        "accumulate_per_byte": per_byte_stats,
        "batched_speedup": (
            batched_stats["best_traces_per_second"]
            / per_byte_stats["best_traces_per_second"]
        ),
        "correlations": {
            "seconds_per_eval": sum(correlate_seconds) / N_ROUNDS,
            "best_seconds_per_eval": min(correlate_seconds),
            "evals_per_second": N_ROUNDS / sum(correlate_seconds),
        },
        "key_rank": {
            "seconds_per_eval": sum(eval_seconds) / N_ROUNDS,
            "best_seconds_per_eval": min(eval_seconds),
            "best_peaks_seconds": min(peak_seconds),
            "best_bounds_seconds": min(bound_seconds),
            "cpu_count": os.cpu_count(),
        },
        "peak_rss_bytes": peak_rss_bytes(),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    run_once(benchmark, lambda: _accumulate(traces, cts, "batched"))
    benchmark.extra_info["traces_per_s"] = round(
        report["accumulate"]["traces_per_second"]
    )
    benchmark.extra_info["per_byte_traces_per_s"] = round(
        report["accumulate_per_byte"]["traces_per_second"]
    )
    benchmark.extra_info["first_call_ms"] = round(first_call * 1e3, 1)
    benchmark.extra_info["key_rank_eval_ms"] = round(
        report["key_rank"]["best_seconds_per_eval"] * 1e3, 2
    )
    benchmark.extra_info["batched_speedup"] = round(
        report["batched_speedup"], 2
    )
    benchmark.extra_info["peak_rss_mb"] = round(
        report["peak_rss_bytes"] / 1e6
    )
    benchmark.extra_info["report"] = str(OUTPUT.name)
    assert report["accumulate"]["traces_per_second"] > 0
