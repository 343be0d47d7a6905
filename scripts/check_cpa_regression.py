"""Gate the batched CPA accumulate engine's speedup in CI.

Reads the ``BENCH_cpa.json`` written by
``benchmarks/bench_cpa_throughput.py`` (which itself asserts the two
engines' correlations bit-identical before reporting) and fails unless
the batched engine (the native conditional-sum kernel) beats the
per-byte reference engine by at least ``--min-speedup`` on best-round
accumulate throughput.  This is the regression gate for the batched
hot path: a change that quietly collapses it back to per-byte speed
turns this red instead of shipping.

Exits non-zero on a missing/stale report or an insufficient speedup.
Used by CI's bench-quick job after the benchmark run::

    PYTHONPATH=src python scripts/check_cpa_regression.py --min-speedup 2
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_REPORT = Path(__file__).resolve().parents[1] / "BENCH_cpa.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report",
        type=Path,
        default=DEFAULT_REPORT,
        help="BENCH_cpa.json location (default: repository root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required batched/per-byte accumulate throughput ratio",
    )
    args = parser.parse_args(argv)

    if not args.report.is_file():
        print(f"FAIL: {args.report} not found; run the CPA benchmark first")
        return 1
    report = json.loads(args.report.read_text())
    try:
        batched = report["accumulate"]["best_traces_per_second"]
        per_byte = report["accumulate_per_byte"]["best_traces_per_second"]
        speedup = report["batched_speedup"]
    except KeyError as exc:
        print(
            f"FAIL: {args.report} predates the split accumulate report "
            f"(missing {exc}); re-run the CPA benchmark"
        )
        return 1

    verdict = "ok" if speedup >= args.min_speedup else "FAIL"
    print(
        f"{verdict}: batched {batched:,.0f} traces/s vs per-byte "
        f"{per_byte:,.0f} traces/s -> {speedup:.2f}x "
        f"(required >= {args.min_speedup:.2f}x)"
    )
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
