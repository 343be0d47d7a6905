"""Correlation power analysis against the round-per-cycle AES core.

The attack targets the *last-round* register transition: byte ``b`` of
the round register flips from the round-9 state to the ciphertext, and
the round-9 byte is computable from the ciphertext under a guess of one
last-round-key byte:

``state9[SHIFT_ROWS_IDX[j]] = InvSBox(ct[j] ^ k10[j])``

so the hypothesis for key byte ``j``, guess ``g`` is

``h = HW(InvSBox(ct[j] ^ g) ^ ct[SHIFT_ROWS_IDX[j]])``.

Pearson correlation between ``h`` and every trace sample, maximized
over samples, ranks the 256 guesses; the recovered last-round key is
inverted through the key schedule to the master key.

The engine is *incremental*: it maintains the five running sums the
correlation needs, so rank-vs-trace-count curves (Fig. 5/6) reuse all
earlier work.  Two accumulate engines keep the same exact sums
(selected by the ``accumulate=`` argument, defaulting through
:mod:`repro.backends`):

``"batched"`` (default)
    One chunk is folded by the native conditional-sum kernel
    (:class:`repro.kernels._csampler.CpaKernel`).  With ``b =
    ct[SHIFT_ROWS_IDX[j]]`` and ``a = InvSBox(ct[j] ^ g)``, the
    hypothesis is ``h = HW(a) + HW(b) - 2 * sum_k a_k b_k`` and ``a``
    depends only on ``(ct[j], g)``; so the chunk's sums over all 256
    guesses are XOR-correlations over ``ct[j]`` of per-byte
    conditional sums (traces keyed by ``ct[j]``, weighted by 1 and the
    bits of ``b``), which a 256-point Walsh-Hadamard transform
    evaluates exactly in integer arithmetic — standard conditional
    averaging (Bottinelli & Bos, JCEN 2017).  The chunk sums go into
    one :class:`~repro.analysis.streaming.StackedStreamingPearson`,
    which shares the trace sums across the 16 key bytes.
``"per-byte"``
    16 small GEMMs over per-byte :class:`~repro.analysis.streaming.
    StreamingPearson` accumulators, hypotheses from one precomputed
    ``(256, 256, 256)`` lookup table.  The differential-testing oracle,
    and the one fallback of the batched engine: a chunk the kernel
    cannot fold exactly (non-integer readouts, readouts past its int32
    bound) or a process where the kernel is unavailable (no compiler,
    failed self-test, the ``numpy`` backend) folds through the per-byte
    sums into the same stacked state.

Both engines keep the exact integer-in-float64 sums of the
reproducibility contract, so correlations, key ranks and state
snapshots are bit-identical between them at any chunk size or merge
order — the property ``tests/test_cpa_batched.py`` pins down.
:attr:`CPAAttack.fold_engines` records which engine folded an attack's
chunks, for the run record.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from repro.analysis.streaming import StackedStreamingPearson, StreamingPearson
from repro.backends import cpa_accumulate_mode
from repro.errors import AttackError
from repro.kernels._csampler import get_cpa_kernel
from repro.traces.store import TraceSet
from repro.victims.aes.core import SHIFT_ROWS_IDX
from repro.victims.aes.key_schedule import invert_key_schedule
from repro.victims.aes.sbox import HW8, INV_SBOX

_HYP_TABLE: Optional[np.ndarray] = None

#: Bounds of the native kernel's exact integer arithmetic (see
#: :func:`_native_chunk_sums`).
_INT32_LIMIT = 1 << 31
_F64_EXACT_LIMIT = 1 << 53


def hypothesis_table() -> np.ndarray:
    """The ``(guess, ct_target, ct_partner) -> HW`` lookup table
    (16 MiB, built once per process)."""
    global _HYP_TABLE
    if _HYP_TABLE is None:
        g = np.arange(256, dtype=np.uint8)[:, None]
        ct = np.arange(256, dtype=np.uint8)[None, :]
        pred = INV_SBOX[ct ^ g]  # (256 guesses, 256 ct_target)
        partner = np.arange(256, dtype=np.uint8)[None, None, :]
        _HYP_TABLE = HW8[pred[:, :, None] ^ partner]  # (256, 256, 256)
    return _HYP_TABLE


def _native_chunk_sums(traces: np.ndarray, cts: np.ndarray):
    """A chunk's exact sums ``(s_x, s_x2, s_xy, s_y, s_y2)`` from the
    native kernel, or ``None`` when the kernel cannot fold it exactly.

    The kernel runs only on integer-valued chunks within its bound:
    with ``P = max|t|``, ``m * max(P, 64) < 2**31`` keeps every
    conditional sum and forward transform in int32, and ``m * P**2 <
    2**53`` keeps ``s_y2`` — and so every sum — an exact float64
    integer, as the per-byte engine's float64 sums are.
    """
    kernel = get_cpa_kernel()
    if kernel is None or traces.dtype.kind not in "iuf":
        return None
    lo, hi = traces.min(), traces.max()
    if traces.dtype.kind == "f" and not (
        np.isfinite(lo) and np.isfinite(hi)
        and np.array_equal(traces, np.floor(traces))
    ):
        return None
    m = traces.shape[0]
    peak = max(abs(int(lo)), abs(int(hi)))
    if m * max(peak, 64) >= _INT32_LIMIT or m * peak * peak >= _F64_EXACT_LIMIT:
        return None
    return kernel.fold(traces, cts)


class CPAAttack:
    """Incremental last-round CPA.

    A thin attack-specific shell over streaming Pearson accumulators
    (one :class:`~repro.analysis.streaming.StackedStreamingPearson` in
    batched mode, 16 per-byte :class:`~repro.analysis.streaming.
    StreamingPearson` in reference mode): ``add_traces`` folds chunks
    in, :meth:`merge` combines independently built attacks (the shard
    path of :meth:`repro.runtime.Engine.stream_attack`), and because
    readouts and hypotheses are small integers the accumulated sums —
    hence the correlations and key ranks — are bit-identical for any
    chunking, merge order or accumulate engine.

    Parameters
    ----------
    n_samples:
        Samples per trace.
    sample_window:
        Optional ``(start, stop)`` restriction of the correlated sample
        range (the attacker knows the trigger-to-last-round timing, so
        correlating the whole trace is wasted work; ``None`` correlates
        everything).
    accumulate:
        ``"batched"``, ``"per-byte"``, or ``None`` to resolve through
        the active compute backend (``REPRO_BACKEND``): the ``numpy``
        backend selects the per-byte reference engine, everything else
        the batched engine.
    """

    N_BYTES = 16
    N_GUESSES = 256

    def __init__(
        self,
        n_samples: int,
        sample_window: Optional[Tuple[int, int]] = None,
        *,
        accumulate: Optional[str] = None,
    ) -> None:
        if n_samples <= 0:
            raise AttackError("n_samples must be positive")
        if sample_window is not None:
            start, stop = sample_window
            if not 0 <= start < stop <= n_samples:
                raise AttackError(
                    f"sample window {sample_window} invalid for {n_samples} samples"
                )
        self.n_samples = n_samples
        self.sample_window = sample_window
        self.accumulate = cpa_accumulate_mode(accumulate)
        if self.accumulate == "batched":
            self._stacked: Optional[StackedStreamingPearson] = (
                StackedStreamingPearson(
                    self.N_BYTES, self.N_GUESSES, self._window_size
                )
            )
            self._byte_corr: Optional[list] = None
            # Resolve (build, self-test) the kernel now: attacks are
            # built in the parent before the engine forks its pool, so
            # the workers inherit it instead of paying it on their
            # first chunk.
            get_cpa_kernel()
        else:
            self._stacked = None
            self._byte_corr = [
                StreamingPearson(self.N_GUESSES, self._window_size)
                for _ in range(self.N_BYTES)
            ]
        self._derived: dict = {}
        self._fold_engines: Set[str] = set()

    # -- pickling: keep shard result pipes slim ------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_derived"] = {}
        del state["_fold_engines"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fold_engines = set()

    @property
    def fold_engines(self) -> frozenset:
        """The engines (``"native"``, ``"per-byte"``) that folded chunks
        into this attack in this process, merged attacks included.  Not
        pickled: a worker reports it in its ``accumulate`` span."""
        return frozenset(self._fold_engines)

    @property
    def _window_size(self) -> int:
        if self.sample_window is None:
            return self.n_samples
        return self.sample_window[1] - self.sample_window[0]

    @property
    def n_traces(self) -> int:
        """Traces accumulated so far."""
        if self._stacked is not None:
            return self._stacked.n
        return self._byte_corr[0].n

    def telemetry_counters(self) -> dict:
        """Numeric progress counters for checkpoint telemetry spans."""
        return {"n_traces": self.n_traces, "n_samples": self.n_samples}

    # ------------------------------------------------------------------
    def add_traces(self, traces: np.ndarray, ciphertexts: np.ndarray) -> None:
        """Accumulate a batch of traces and their ciphertexts."""
        traces = np.asarray(traces)
        cts = np.asarray(ciphertexts, dtype=np.uint8)
        if traces.ndim != 2 or traces.shape[1] != self.n_samples:
            raise AttackError(
                f"traces must be (m, {self.n_samples}), got {traces.shape}"
            )
        if traces.shape[0] == 0:
            raise AttackError("empty trace chunk; chunked feeds must skip empty chunks")
        if cts.shape != (traces.shape[0], 16):
            raise AttackError("ciphertexts must be (m, 16)")
        if self.sample_window is not None:
            traces = traces[:, self.sample_window[0] : self.sample_window[1]]
        self._derived.clear()
        if self._stacked is not None:
            sums = _native_chunk_sums(traces, cts)
            if sums is not None:
                self._stacked.fold_sums(traces.shape[0], *sums)
                self._fold_engines.add("native")
                return
        self._fold_per_byte(np.asarray(traces, dtype=np.float64), cts)
        self._fold_engines.add("per-byte")

    #: Uniform accumulator-protocol alias used by the streaming engine.
    update = add_traces

    def _fold_per_byte(self, traces: np.ndarray, cts: np.ndarray) -> None:
        """The per-byte engine: one ``(256, m)`` hypothesis block from
        :func:`hypothesis_table` and one :class:`StreamingPearson`
        update per key byte.  A batched attack folds the resulting
        chunk sums into its stacked state — the same values, so the
        fallback is bit-identical to a per-byte attack."""
        table = hypothesis_table()
        per_byte = self._byte_corr or [
            StreamingPearson(self.N_GUESSES, self._window_size)
            for _ in range(self.N_BYTES)
        ]
        for j, corr in enumerate(per_byte):
            partner = int(SHIFT_ROWS_IDX[j])
            corr.update(table[:, cts[:, j], cts[:, partner]].T, traces)
        if self._stacked is not None:
            dumps = [corr.state_arrays() for corr in per_byte]
            self._stacked.fold_sums(
                traces.shape[0],
                *(np.stack([d[f] for d in dumps]) for f in ("s_x", "s_x2", "s_xy")),
                dumps[0]["s_y"],
                dumps[0]["s_y2"],
            )

    def add_trace_set(self, trace_set: TraceSet, limit: Optional[int] = None) -> None:
        """Accumulate (the first ``limit`` traces of) a
        :class:`~repro.traces.store.TraceSet`."""
        n = len(trace_set) if limit is None else min(limit, len(trace_set))
        self.add_traces(trace_set.traces[:n], trace_set.ciphertexts[:n])

    def merge(self, other: "CPAAttack") -> "CPAAttack":
        """Fold another attack's accumulated sums in.

        Both attacks must share ``n_samples``, ``sample_window`` and
        accumulate engine.  Merging is exact, so shard-local attacks
        merged in any order equal one attack fed the same traces
        serially, bit for bit.
        """
        if not isinstance(other, CPAAttack):
            raise AttackError(f"cannot merge {type(other).__name__} into CPAAttack")
        if (
            other.n_samples != self.n_samples
            or other.sample_window != self.sample_window
        ):
            raise AttackError(
                "cannot merge CPA attacks with different sample configuration"
            )
        if other.accumulate != self.accumulate:
            raise AttackError(
                f"cannot merge a {other.accumulate!r}-engine attack into a "
                f"{self.accumulate!r}-engine attack"
            )
        self._derived.clear()
        self._fold_engines |= other._fold_engines
        if self._stacked is not None:
            self._stacked.merge(other._stacked)
        else:
            for mine, theirs in zip(self._byte_corr, other._byte_corr):
                mine.merge(theirs)
        return self

    # ------------------------------------------------------------------
    # Snapshot protocol — lets :meth:`repro.runtime.Engine.stream_attack`
    # memoize accumulator states in the trace block store, so a repeated
    # campaign replays the attack from stored sums instead of re-paying
    # acquisition *and* accumulation.
    # ------------------------------------------------------------------
    def cache_token(self) -> dict:
        """Everything that determines this attack's accumulated state
        besides the traces themselves (the content-address companion of
        the acquisition's ``cache_token``).

        The accumulate engine is deliberately absent: both engines
        accumulate bit-identical sums and :meth:`load_state_arrays`
        reads either layout, so snapshots are interchangeable between
        them (including pre-batched-engine dumps).
        """
        return {
            "type": type(self).__name__,
            "n_samples": int(self.n_samples),
            "sample_window": (
                None
                if self.sample_window is None
                else [int(self.sample_window[0]), int(self.sample_window[1])]
            ),
        }

    def state_arrays(self) -> dict:
        """The full accumulator state as named arrays.

        The sums are exact (see :mod:`repro.analysis.streaming`), so
        restoring a dump reproduces :meth:`correlations` — and every
        rank derived from it — bit for bit.  The batched engine dumps
        the compact stacked layout (one shared copy of the trace sums);
        the per-byte engine keeps the legacy ``b{j:02d}_*`` layout.
        """
        if self._stacked is not None:
            return self._stacked.state_arrays()
        out = {}
        for j, corr in enumerate(self._byte_corr):
            for name, arr in corr.state_arrays().items():
                out[f"b{j:02d}_{name}"] = arr
        return out

    def load_state_arrays(self, arrays) -> "CPAAttack":
        """Overwrite this attack with a :meth:`state_arrays` dump.

        Accepts both dump layouts regardless of this attack's engine —
        the migration shim that keeps attack-state snapshots written by
        the per-byte engine (every pre-batched block store) replayable
        by batched attacks, and vice versa.
        """
        self._derived.clear()
        if "s_xy" in arrays:
            stacked = self._as_stacked_arrays_noop(arrays)
        elif "b00_s_xy" in arrays:
            stacked = self._stack_per_byte_arrays(arrays)
        else:
            raise AttackError(
                "unrecognized CPA state dump: expected stacked arrays "
                "('s_xy', ...) or per-byte arrays ('b00_s_xy', ...)"
            )
        if self._stacked is not None:
            self._stacked.load_state_arrays(stacked)
            return self
        w = self._window_size
        s_xy = np.asarray(stacked["s_xy"], dtype=np.float64).reshape(
            self.N_BYTES, self.N_GUESSES, w
        )
        s_x = np.asarray(stacked["s_x"], dtype=np.float64).reshape(
            self.N_BYTES, self.N_GUESSES
        )
        s_x2 = np.asarray(stacked["s_x2"], dtype=np.float64).reshape(
            self.N_BYTES, self.N_GUESSES
        )
        for j, corr in enumerate(self._byte_corr):
            corr.load_state_arrays(
                {
                    "n": stacked["n"],
                    "s_x": s_x[j],
                    "s_x2": s_x2[j],
                    "s_y": stacked["s_y"],
                    "s_y2": stacked["s_y2"],
                    "s_xy": s_xy[j],
                }
            )
        return self

    @staticmethod
    def _as_stacked_arrays_noop(arrays) -> dict:
        return {
            name: arrays[name]
            for name in ("n", "s_x", "s_x2", "s_y", "s_y2", "s_xy")
        }

    def _stack_per_byte_arrays(self, arrays) -> dict:
        """Convert a legacy per-byte dump into the stacked layout.

        A legacy dump carries 16 copies of the shared quantities
        (``n``, ``s_y``, ``s_y2``); they are required to agree, which
        doubles as a consistency check on the dump.
        """
        def field(j: int, name: str) -> np.ndarray:
            return np.asarray(arrays[f"b{j:02d}_{name}"])

        n0 = field(0, "n")
        s_y = field(0, "s_y")
        s_y2 = field(0, "s_y2")
        for j in range(1, self.N_BYTES):
            if not (
                np.array_equal(field(j, "n"), n0)
                and np.array_equal(field(j, "s_y"), s_y)
                and np.array_equal(field(j, "s_y2"), s_y2)
            ):
                raise AttackError(
                    "inconsistent per-byte CPA state dump: shared trace "
                    f"sums of byte {j} disagree with byte 0"
                )
        return {
            "n": n0,
            "s_x": np.stack([field(j, "s_x") for j in range(self.N_BYTES)]),
            "s_x2": np.stack([field(j, "s_x2") for j in range(self.N_BYTES)]),
            "s_y": s_y,
            "s_y2": s_y2,
            "s_xy": np.stack([field(j, "s_xy") for j in range(self.N_BYTES)]),
        }

    # ------------------------------------------------------------------
    def correlations(self) -> np.ndarray:
        """Pearson correlation per (key byte, guess, sample):
        ``(16, 256, window)``, read-only.

        Memoized until the next ``add_traces``/``merge``/state load (by
        the stacked accumulator in batched mode; the per-byte engine
        memoizes its stack of the per-byte matrices here).  Key rank
        does not need the stack: it reads :meth:`peak_correlations`.
        """
        if self.n_traces < 2:
            raise AttackError("need at least two traces to correlate")
        if self._stacked is not None:
            return self._stacked.finalize()
        if "rho" not in self._derived:
            rho = np.stack([corr.finalize() for corr in self._byte_corr])
            rho.flags.writeable = False
            self._derived["rho"] = rho
        return self._derived["rho"]

    def peak_correlations(self) -> np.ndarray:
        """Per (byte, guess) |correlation| maximized over samples:
        ``(16, 256)`` — the guess-ranking statistic, read-only.

        Bit-identical to ``np.abs(self.correlations()).max(axis=2)``,
        but the batched engine computes it in one fused pass
        (:meth:`~repro.analysis.streaming.StackedStreamingPearson.
        peak_abs`) that never builds the ``(16, 256, window)`` stack.
        Memoized until the next ``add_traces``/``merge``/state load, so
        a checkpoint's key rank, best guesses and byte ranks share one
        pass.
        """
        if self.n_traces < 2:
            raise AttackError("need at least two traces to correlate")
        if "peaks" not in self._derived:
            if self._stacked is not None:
                peaks = self._stacked.peak_abs()
            else:
                peaks = np.stack(
                    [np.abs(corr.finalize()).max(axis=1) for corr in self._byte_corr]
                )
            peaks.flags.writeable = False
            self._derived["peaks"] = peaks
        return self._derived["peaks"]

    def best_guesses(self) -> np.ndarray:
        """The most-correlated guess of each last-round-key byte."""
        return self.peak_correlations().argmax(axis=1).astype(np.uint8)

    def recover_master_key(self) -> np.ndarray:
        """Best-guess last-round key inverted to the 16-byte master
        key."""
        return invert_key_schedule(self.best_guesses(), round_index=10)

    def byte_ranks(self, true_last_round_key) -> np.ndarray:
        """Rank (0 = best) of each true last-round-key byte among the
        guesses — the per-byte convergence diagnostic."""
        true = np.asarray(true_last_round_key, dtype=np.uint8)
        if true.shape != (16,):
            raise AttackError("true_last_round_key must be 16 bytes")
        peaks = self.peak_correlations()
        order = np.argsort(-peaks, axis=1)
        ranks = np.empty(16, dtype=np.int64)
        for j in range(16):
            ranks[j] = int(np.where(order[j] == true[j])[0][0])
        return ranks

