"""The benchmark's three workloads, at the shape a real campaign runs.

Every CPA workload streams 4096-trace shards of 195 samples (the fig5
acquisition shape) through a pool of ``WORKERS`` processes; the
characterization workload runs the Fig. 4 experiment (LeakyDSP and TDC
in six clock regions, power virus off and on) on the same pool.  The
workload seed is the experiment's root seed; everything else here is
fixed, so one ``(workload, seed)`` pair names one exact computation.

Only stdlib is imported: the harness reads these definitions without
importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Pool size of every campaign (a closed loop with one client).
WORKERS = 2

#: Traces per engine shard (the campaign shape).
SHARD = 4096

#: Traces per CPA campaign: six full shards.  P6 breaks the key between
#: ~11k and ~17k traces depending on the seed, so the campaign ends with
#: margin past the latest break seen.
CPA_TRACES = 6 * SHARD

#: Traces between key-rank checkpoints of a cold CPA campaign: one per
#: shard, so time-to-key resolves to the shard where the key breaks.
CHECKPOINT = SHARD

#: Readouts per (sensor, virus level) in the characterization campaign:
#: eight shards, so the exact per-bit sampler dominates campaign time.
CHAR_READOUTS = 8 * SHARD

#: The eight Table I / Fig. 5 placements, P6 (the paper's best) first.
#: Key rank is evaluated in this order at each checkpoint, so the first
#: recovered key is not seen only after the other placements' ranks.
ALL_PLACEMENTS = ("P6", "P1", "P2", "P3", "P4", "P5", "P7", "P8")

#: Fig. 4 regions (paper order) and sensor families.
REGIONS = 6
CHAR_FAMILIES = ("LeakyDSP", "TDC")


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    experiment: str
    options: Dict[str, object]
    #: ``"off"`` (no block store) or ``"empty"`` (a fresh, empty store).
    cache: str = "off"
    #: Placements that must recover the key within the campaign.
    breaking: Tuple[str, ...] = ()
    #: Sensor outputs per campaign (the ``items_per_s`` numerator).
    items: int = 0


def _cpa_options(placements, step: int) -> Dict[str, object]:
    return {
        "placements": list(placements),
        "n_traces": CPA_TRACES,
        "step": step,
        "rating_at": 20_000,
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream-single-cold",
            why=(
                "fig5 at P6, one sensor, streamed CPA, cache off: the "
                "default user run; single-sensor acquire and CPA "
                "accumulate both work"
            ),
            experiment="fig5",
            options=_cpa_options(("P6",), CHECKPOINT),
            breaking=("P6",),
            items=CPA_TRACES,
        ),
        Workload(
            name="stream-fanout8-store",
            why=(
                "all 8 placements in one fan-out campaign into an empty "
                "store: accumulate for 8 sensors dominates; the store's "
                "write side"
            ),
            experiment="fig5",
            options=_cpa_options(ALL_PLACEMENTS, CHECKPOINT),
            cache="empty",
            breaking=("P6",),
            items=CPA_TRACES * len(ALL_PLACEMENTS),
        ),
        Workload(
            name="characterize-regions",
            why=(
                "fig4 shape, LeakyDSP and TDC in 6 regions, virus off "
                "and on, cache off: exact per-bit sampling; no AES, CPA "
                "or key rank"
            ),
            experiment="fig4",
            options={"n_readouts": CHAR_READOUTS},
            items=CHAR_READOUTS * REGIONS * len(CHAR_FAMILIES) * 2,
        ),
    )
}
