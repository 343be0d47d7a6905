"""The repository benchmark: campaign-shape workloads, measured from
process spawn to printed result, with an outside-in per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload stream-single-cold --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 38

One run is a closed loop with one client: a fresh process runs one
campaign (``perfbench/campaign.py``), the next starts when it has
exited, until ``--seconds`` have passed (at least ``MIN_CAMPAIGNS``
campaigns).  End-to-end metrics are medians over those untraced
campaigns.  ``--trace 1`` adds one traced campaign whose layer totals
give the per-layer metrics.  Every campaign's outputs are checked; the
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

#: Where runs keep their stores and trace files (inside the checkout).
WORK = ROOT / ".perfbench-work"

#: A campaign that takes longer than this is killed and counted failed.
CAMPAIGN_TIMEOUT = 60.0

#: Fewest untraced campaigns per run, however short ``--seconds``.
MIN_CAMPAIGNS = 3

#: End-to-end metrics and their units (``failed_frac`` is reported as
#: the result's ``failed``/``attempted``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "time_to_key_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of the traced campaign and their units.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.engine_s": "s",
    "experiments.prepare_s": "s",
    "engine.campaign_s": "s",
    "engine.first_shard_s": "s",
    "engine.parent_wait_s": "s",
    "engine.shards": "count",
    "kernels.acquire_s": "s",
    "kernels.acquire.traces": "count",
    "kernels.acquire_many_s": "s",
    "kernels.acquire_many.traces": "count",
    "kernels.sample_sensor.calls": "count",
    "stage.aes_s": "s",
    "stage.pdn_s": "s",
    "stage.sensor_s": "s",
    "stage.accumulate_s": "s",
    "stage.cache_s": "s",
    "sensor.sample_readouts_s": "s",
    "sensor.sample_readouts.items": "count",
    "cpa.add_traces_s": "s",
    "cpa.add_traces.traces": "count",
    "cpa.first_add_s": "s",
    "cpa.merge_s": "s",
    "cpa.correlations_s": "s",
    "cpa.correlations.calls": "count",
    "cpa.load_state_arrays.calls": "count",
    "keyrank.eval_s": "s",
    "keyrank.evals": "count",
    "store.get_s": "s",
    "store.get.calls": "count",
    "store.get.bytes": "bytes",
    "store.hit_ratio": "ratio",
    "store.put_s": "s",
    "store.put.calls": "count",
    "store.put.bytes": "bytes",
    "store.contains.calls": "count",
    "trace.worker_processes": "count",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program sources)."""


# ----------------------------------------------------------------------
# Campaign processes
# ----------------------------------------------------------------------

def child_env(tmp: Path) -> Dict[str, str]:
    """The campaign environment: the checkout's sources, temp files in
    the checkout, and none of the program's ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def spawn(spec: dict, env: Dict[str, str]) -> Tuple[Optional[dict], float, str]:
    """Run one campaign process; ``(record or None, spawn time, error)``.

    The process gets its own session, so a timeout kills it together
    with its pool workers; it is always waited for.
    """
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "campaign.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CAMPAIGN_TIMEOUT)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {CAMPAIGN_TIMEOUT:.0f}s"
    finally:
        # Whatever is left of the session: a hung campaign, or pool
        # workers a crashed one left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return None, t_spawn, f"exit {proc.returncode}: {tail}"
    try:
        return json.loads(lines[-1]), t_spawn, ""
    except json.JSONDecodeError:
        return None, t_spawn, "no result line"


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def check_outputs(workload: Workload, record: dict, reference: Optional[dict]) -> List[str]:
    """Why one campaign's outputs are wrong (empty when correct).

    ``reference`` is the run's first campaign (same workload and seed:
    the digest must be identical).
    """
    reasons = []
    if reference is not None and record["digest"] != reference["digest"]:
        reasons.append("output digest differs from the run's first campaign")
    outputs = record["outputs"]
    if workload.experiment == "fig5":
        for placement in workload.breaking:
            points = outputs.get(placement) or []
            if not points or not points[-1][3]:
                reasons.append(f"{placement} did not recover the key")
        if workload.breaking and record.get("key_time") is None:
            reasons.append("no recovered keyrank progress event")
    else:
        for sensor, points in outputs.items():
            deltas = [float.fromhex(off) - float.fromhex(on) for _, off, on in points]
            if len(deltas) != 6 or min(deltas) <= 0:
                reasons.append(f"{sensor}: virus not sensed in every region")
        leaky = outputs.get("LeakyDSP", [])
        if leaky and max(leaky, key=lambda p: float.fromhex(p[1]) - float.fromhex(p[2]))[0] != 2:
            reasons.append("LeakyDSP best region is not region 2")
    return reasons


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def campaign_metrics(workload: Workload, record: dict, t_spawn: float) -> Dict[str, float]:
    """End-to-end metrics of one campaign process."""
    intervals = record["intervals"]
    campaign_s = sum(end - start for start, end in record["campaigns"])
    if workload.breaking:
        key = record["key_time"]
    else:
        # No key to recover: the solution is the finished campaigns.
        key = record["campaigns"][-1][1]
    return {
        "setup_s": intervals["experiments.run"][0] - t_spawn,
        "wall_s": intervals["report"][1] - t_spawn,
        "time_to_key_s": key - t_spawn,
        "items_per_s": workload.items / campaign_s,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(record: dict, t_spawn: float, untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign process."""
    procs = record["processes"]
    seconds: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for proc in procs:
        for k, v in proc["seconds"].items():
            seconds[k] = seconds.get(k, 0.0) + v
        for k, v in proc["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
    iv = record["intervals"]
    campaign_s = sum(end - start for start, end in record["campaigns"])
    run_s = iv["experiments.run"][1] - iv["experiments.run"][0]
    wall = iv["report"][1] - t_spawn
    gets = counts.get("store.get.calls", 0.0)
    stages = record["stages"]
    out = {
        "setup.import_s": iv["setup.import"][1] - iv["setup.import"][0],
        "setup.engine_s": iv["setup.engine"][1] - iv["setup.engine"][0],
        "experiments.prepare_s": run_s - campaign_s,
        "engine.campaign_s": campaign_s,
        "engine.first_shard_s": seconds.get("engine.first_shard", 0.0),
        "engine.parent_wait_s": seconds.get("engine.parent_wait", 0.0),
        "engine.shards": counts.get("engine.parent_wait.shards", 0.0),
        "kernels.sample_sensor.calls": counts.get("kernels.sample_sensor.calls", 0.0),
        "cpa.first_add_s": max(
            (p["first"].get("cpa.add_traces", 0.0) for p in procs), default=0.0
        ),
        "cpa.correlations.calls": counts.get("cpa.correlations.calls", 0.0),
        "cpa.load_state_arrays.calls": counts.get("cpa.load_state_arrays.calls", 0.0),
        "keyrank.evals": counts.get("keyrank.eval.calls", 0.0),
        "store.hit_ratio": counts.get("store.get.hits", 0.0) / gets if gets else 0.0,
        "trace.worker_processes": float(
            sum(1 for p in procs if p["pid"] != procs[0]["pid"])
        ),
        "unattributed_s": wall - _covered(list(map(tuple, iv.values()))),
        "trace_overhead_frac": wall / untraced_wall - 1.0,
    }
    for stage in ("aes", "pdn", "sensor", "accumulate", "cache"):
        out[f"stage.{stage}_s"] = stages.get(stage, 0.0)
    for name in PER_LAYER:
        if name in out:
            continue
        if name.endswith("_s"):
            out[name] = seconds.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0.0)
    return {name: out[name] for name in PER_LAYER}


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------

def bench(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    min_campaigns: int = MIN_CAMPAIGNS,
    log=print,
) -> dict:
    """Run one workload for ``seconds``; returns the full record."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    env = child_env(tmp)
    failures: List[str] = []
    attempted = 0
    try:
        warm, _, err = spawn({"warm": True}, env)
        if warm is None:
            raise SetupError(f"warm-up failed: {err}")

        def campaign(index: int, trace_dir: Optional[Path] = None):
            spec = {"workload": name, "seed": seed}
            store = run_dir / f"store-{index}"
            if workload.cache != "off":
                spec["cache_dir"] = str(store)
            if trace_dir is not None:
                spec["trace_dir"] = str(trace_dir)
            try:
                return spawn(spec, env)
            finally:
                shutil.rmtree(store, ignore_errors=True)

        records: List[Tuple[dict, float]] = []
        reference = None
        # Closed loop: start the next campaign only if one more of the
        # typical length so far still ends within ``seconds``.
        deadline = time.monotonic() + seconds
        lengths: List[float] = []
        index = 0
        while (
            index < max(1, min_campaigns)
            or time.monotonic() + statistics.median(lengths) <= deadline
        ):
            attempted += 1
            record, t_spawn, err = campaign(index)
            lengths.append(time.monotonic() - t_spawn)
            reasons = [err] if record is None else check_outputs(workload, record, reference)
            if reasons:
                failures.append(f"campaign {index}: {'; '.join(reasons)}")
            else:
                reference = reference or record
                records.append((record, t_spawn))
            index += 1

        metrics = {}
        if records:
            per = [campaign_metrics(workload, r, t) for r, t in records]
            for i, m in enumerate(per):
                log(f"campaign {i}: " + " ".join(f"{k}={v:.4g}" for k, v in m.items()))
            metrics = {k: statistics.median(m[k] for m in per) for k in END_TO_END}

        layers = {}
        if trace and records:
            attempted += 1
            trace_dir = run_dir / "trace"
            record, t_spawn, err = campaign(index, trace_dir)
            reasons = [err] if record is None else check_outputs(workload, record, reference)
            if reasons:
                failures.append(f"traced campaign: {'; '.join(reasons)}")
            else:
                layers = layer_metrics(record, t_spawn, metrics["wall_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for reason in failures:
        log(f"FAILED {name} seed={seed}: {reason}", file=sys.stderr)
    failed = len(failures)
    complete = bool(records) and (not trace or bool(layers))
    return {
        "workload": name,
        "seed": seed,
        "campaigns": len(records),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": failed == 0 and complete,
        "metrics": metrics,
        "layers": layers,
        "env": dict(warm["env"], commit=git_commit()),
    }


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (``None`` outside a
    git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def report(result: dict, log=print) -> None:
    """Human-readable metric lines, by name with unit."""
    log(f"== {result['workload']} seed={result['seed']} "
        f"campaigns={result['campaigns']} attempted={result['attempted']} "
        f"failed={result['failed']}")
    log(f"env: {json.dumps(result['env'], sort_keys=True)}")
    for name, unit in END_TO_END.items():
        if name in result["metrics"]:
            log(f"  {name:<30} {result['metrics'][name]:>14.6g} {unit}")
    log(f"  {'failed_frac':<30} {result['failed_frac']:>14.6g} ratio")
    for name, unit in PER_LAYER.items():
        if name in result["layers"]:
            log(f"  {name:<30} {result['layers'][name]:>14.6g} {unit}")


def contract_line(result: dict, trace: bool) -> dict:
    values = result["layers"] if trace else result["metrics"]
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced, and print all metrics")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    names = sorted(WORKLOADS) if args.all else [args.workload]
    trace = args.all or bool(args.trace)
    results = []
    try:
        for name in names:
            result = bench(name, args.seed, args.seconds, trace)
            report(result)
            results.append(result)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        print(json.dumps({r["workload"]: contract_line(r, False) for r in results}))
    else:
        print(json.dumps(contract_line(results[0], trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
