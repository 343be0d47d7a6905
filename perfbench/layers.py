"""Per-layer call accounting for a traced benchmark campaign.

:func:`install` wraps public functions of each layer of the program —
kernels, sensors, CPA, key rank, block store and the engine's shard
dispatch — with timers and counters.  It runs in the campaign process
*before* the engine forks its pool, so pool workers inherit the
wrappers and their calls are counted too.

Workers leave through ``os._exit``, so no exit hook runs there.  Each
process therefore writes its own totals to ``<trace_dir>/<pid>.json``
whenever its outermost wrapped call returns; :meth:`LayerTrace.collect`
sums the files after the campaign.  A fork resets the child's totals,
so nothing the parent counted before the fork is counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

#: ``fn(args, kwargs, result) -> number``: one counter of a wrapped call.
CountFn = Callable[[tuple, dict, object], float]


class LayerTrace:
    """Call totals of one process tree, one file per process.

    For a wrapped call named ``name`` it keeps ``seconds[name]``, the
    first call's duration ``first[name]``, ``counts[name + ".calls"]``
    and one ``counts[name + "." + suffix]`` per extra counter.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.first: Dict[str, float] = {}
        self._active: set = set()
        self._depth = 0

    # -- recording -----------------------------------------------------
    def add(self, name: str, seconds: float, calls: int = 1, **counts: float) -> None:
        """Account ``calls`` calls of ``name`` taking ``seconds``."""
        self.seconds[name] += seconds
        self.first.setdefault(name, seconds)
        self.counts[f"{name}.calls"] += calls
        for suffix, value in counts.items():
            self.counts[f"{name}.{suffix}"] += value

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "first": dict(self.first),
        }

    def flush(self) -> None:
        """Write this process's totals (atomically replaces the last)."""
        path = self.out_dir / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def wrap(
        self, owner: object, attr: str, name: str, **counters: CountFn
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper accounting to
        ``name``.  A call made while another call of ``name`` is open
        (a subclass override calling ``super()``) is not counted again.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name in self._active:
                return original(*args, **kwargs)
            self._active.add(name)
            self._depth += 1
            result = None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - t0
                self._active.discard(name)
                self._depth -= 1
                self.add(
                    name, seconds,
                    **{k: fn(args, kwargs, result) for k, fn in counters.items()},
                )
                # Workers never run exit hooks: write at every return
                # to the outermost wrapped call.
                if self._depth == 0 and self.pid != self.owner_pid:
                    self.flush()

        setattr(owner, attr, wrapper)

    def wrap_dispatch(self, owners: List[object]) -> None:
        """Wrap the shard dispatch generator (bound by name in every
        module of ``owners``): ``engine.first_shard`` runs from the call
        to the first shard result, ``engine.parent_wait`` is the time
        the caller spends blocked on each next result."""
        original = getattr(owners[0], "dispatch")

        @functools.wraps(original)
        def dispatch(*args, **kwargs):
            called = time.perf_counter()
            gen = original(*args, **kwargs)
            shards = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.add("engine.parent_wait", time.perf_counter() - t0, calls=0)
                        return
                    t1 = time.perf_counter()
                    self.add("engine.parent_wait", t1 - t0, calls=0, shards=1)
                    if not shards:
                        self.add("engine.first_shard", t1 - called)
                    shards += 1
                    yield item
            finally:
                gen.close()

        for owner in owners:
            setattr(owner, "dispatch", dispatch)

    # -- reading back --------------------------------------------------
    def collect(self) -> List[dict]:
        """Every process's totals: this process first, then each file
        written by another process."""
        out = [self.snapshot()]
        for path in sorted(self.out_dir.glob("*.json")):
            if path.stem != str(self.pid):
                out.append(json.loads(path.read_text()))
        return out


def _subclasses(cls: type) -> List[type]:
    found, stack = [], [cls]
    while stack:
        c = stack.pop()
        found.append(c)
        stack.extend(c.__subclasses__())
    return found


def _wrap_hierarchy(
    trace: LayerTrace, base: type, attr: str, name: str, **counters: CountFn
) -> None:
    """Wrap ``attr`` on ``base`` and every loaded subclass defining it."""
    for cls in _subclasses(base):
        fn = cls.__dict__.get(attr)
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            trace.wrap(cls, attr, name, **counters)


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def install(trace: LayerTrace) -> None:
    """Wrap every traced layer's public functions (see module doc)."""
    import numpy as np

    import repro.sensors  # noqa: F401  (loads the sensor subclasses)
    from repro.attacks import metrics
    from repro.attacks.cpa import CPAAttack
    from repro.core.sensor import VoltageSensor
    from repro.kernels import aes_trace, fanout
    from repro.runtime import engine, scheduler
    from repro.traces.blockstore import BlockStore

    block_rows = lambda a, k, r: float(len(_arg(a, k, 3, "plaintexts")))  # noqa: E731

    trace.wrap_dispatch([scheduler, engine])

    kernel = aes_trace.AcquisitionKernel
    _wrap_hierarchy(trace, kernel, "acquire", "kernels.acquire", traces=block_rows)
    _wrap_hierarchy(
        trace, kernel, "acquire_many", "kernels.acquire_many", traces=block_rows
    )
    trace.wrap(fanout, "sample_sensor", "kernels.sample_sensor")

    _wrap_hierarchy(
        trace, VoltageSensor, "sample_readouts", "sensor.sample_readouts",
        items=lambda a, k, r: float(np.size(_arg(a, k, 1, "voltages"))),
    )

    add_traces = CPAAttack.add_traces
    trace.wrap(
        CPAAttack, "add_traces", "cpa.add_traces",
        traces=lambda a, k, r: float(len(_arg(a, k, 1, "traces"))),
    )
    if CPAAttack.__dict__.get("update") is add_traces:
        CPAAttack.update = CPAAttack.add_traces
    trace.wrap(CPAAttack, "merge", "cpa.merge")
    trace.wrap(CPAAttack, "correlations", "cpa.correlations")
    trace.wrap(CPAAttack, "load_state_arrays", "cpa.load_state_arrays")

    trace.wrap(metrics, "evaluate_rank_point", "keyrank.eval")

    _wrap_hierarchy(
        trace, BlockStore, "get", "store.get",
        bytes=lambda a, k, r: float(r.nbytes) if r is not None else 0.0,
        hits=lambda a, k, r: float(r is not None),
    )
    _wrap_hierarchy(
        trace, BlockStore, "put", "store.put",
        bytes=lambda a, k, r: float(
            sum(np.asarray(v).nbytes for v in _arg(a, k, 2, "arrays").values())
        ),
    )
    _wrap_hierarchy(trace, BlockStore, "contains", "store.contains")
