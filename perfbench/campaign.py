"""One benchmark campaign in a fresh process.

Usage (the harness in ``run.py`` spawns this; it is not a user tool)::

    python perfbench/campaign.py '<json spec>'

The spec names the workload, seed, optional block-store directory and,
for a traced campaign, a directory for the per-process layer totals.
The process does what a user's ``repro <experiment>`` run does —
import the CLI and the experiment registry, build the engine, run the
experiment through :func:`repro.experiments.registry.run`, print the
report lines — and then prints one JSON line with its timestamps
(``time.monotonic``, comparable with the harness's), the result digest
and the layer totals.
"""

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import SHARD, WORKERS, WORKLOADS

#: Engine methods that start a campaign (the ``engine.campaign_s``
#: layer and the ``items_per_s`` denominator).
CAMPAIGN_METHODS = (
    "collect", "collect_many", "stream_attack", "stream_attack_many",
    "characterize", "characterize_many",
)


def _time_campaigns(engine_cls, spans: list) -> None:
    """Record ``(start, end)`` of every top-level campaign call."""
    depth = [0]

    def timed(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    spans.append((t0, time.monotonic()))

        return wrapper

    for name in CAMPAIGN_METHODS:
        setattr(engine_cls, name, timed(getattr(engine_cls, name)))


def _curve_points(payload) -> dict:
    """Full-precision rank curves per placement."""
    return {
        placement: [
            [int(p.n_traces), float(p.log2_lower).hex(), float(p.log2_upper).hex(),
             bool(p.recovered)]
            for p in curve.points
        ]
        for placement, curve in payload.curves.items()
    }


def _region_points(payload) -> dict:
    """Full-precision off/on mean readout per sensor and region."""
    return {
        sensor: [
            [int(p.region_index), float(p.readout_off).hex(), float(p.readout_on).hex()]
            for p in points
        ]
        for sensor, points in payload.points.items()
    }


def digest(outputs: dict) -> str:
    """SHA-256 of a campaign's outputs (curves or region readouts)."""
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def environment() -> dict:
    """What this campaign ran on (recorded with every result)."""
    import numpy as np

    from repro.backends import active_backend_name
    from repro.kernels._csampler import get_sampler
    from repro.kernels.aes_trace import default_kernel_name

    blas = {
        name: os.environ.get(name)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "REPRO_BLAS_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": blas,
        "backend": active_backend_name(),
        "kernel": default_kernel_name(),
        "csampler_built": get_sampler() is not None,
        "workers": WORKERS,
    }


def warm() -> dict:
    """Pay the once-per-checkout costs a user pays once per machine:
    bytecode compilation of the program and the C sampler build."""
    import repro.cli  # noqa: F401
    from repro.experiments import registry

    registry.names()
    return {"env": environment()}


def main(spec: dict) -> dict:
    if spec.get("warm"):
        return warm()
    workload = WORKLOADS[spec["workload"]]
    intervals = {}

    trace = None
    if spec.get("trace_dir"):
        from layers import LayerTrace

        trace = LayerTrace(Path(spec["trace_dir"]))

    t0 = time.monotonic()
    import repro.cli  # noqa: F401  (what `repro <experiment>` imports)
    from repro.experiments import registry
    from repro.runtime import Engine

    registry.names()
    intervals["setup.import"] = (t0, time.monotonic())

    key_time = []

    def on_progress(event) -> None:
        payload = event.payload or {}
        if event.kind == "keyrank" and payload.get("recovered") and not key_time:
            key_time.append(time.monotonic())

    campaigns: list = []
    t0 = time.monotonic()
    _time_campaigns(Engine, campaigns)
    if trace is not None:
        from layers import install

        install(trace)
    intervals["trace.install"] = (t0, time.monotonic())

    t0 = time.monotonic()
    config = registry.ExperimentConfig(
        scale="paper",
        seed=spec["seed"],
        workers=WORKERS,
        shard_size=SHARD,
        progress=on_progress,
        cache_dir=spec.get("cache_dir"),
        options=dict(workload.options),
    )
    engine = config.make_engine()
    intervals["setup.engine"] = (t0, time.monotonic())

    t0 = time.monotonic()
    result = registry.run(workload.experiment, config, engine)
    intervals["experiments.run"] = (t0, time.monotonic())

    t0 = time.monotonic()
    print("\n".join(result.lines()), flush=True)
    intervals["report"] = (t0, time.monotonic())

    if workload.experiment == "fig5":
        outputs = _curve_points(result.payload)
    else:
        outputs = _region_points(result.payload)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "key_time": key_time[0] if key_time else None,
        "intervals": intervals,
        "campaigns": campaigns,
        "outputs": outputs,
        "digest": digest(outputs),
        "peak_rss_mb": usage / 1024.0,
    }
    if trace is not None:
        from repro.telemetry.spans import leaf_totals

        record["processes"] = trace.collect()
        record["stages"] = leaf_totals(engine.telemetry.roots)
    return record


if __name__ == "__main__":
    out = main(json.loads(sys.argv[1]))
    print(json.dumps(out), flush=True)
