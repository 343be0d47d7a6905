"""Acquisition kernels: the trace-generation hot path, swappable.

Two implementations of the same model pipeline (AES round states ->
switching currents -> PDN low-pass -> sensor sampling):

* :class:`ReferenceAcquisitionKernel` (``"reference"``) — the literal
  pipeline: dense per-sample current matrix, sequential
  ``scipy.signal.lfilter`` recurrence, ``numpy.interp`` moments lookup.
  Kept as the differential-testing oracle.
* :class:`FusedAcquisitionKernel` (``"fused"``, the default) — the
  algebraically fused rewrite:

  - the PDN droop is a single BLAS matmul against the precomputed
    step-response basis (:mod:`repro.kernels.basis`) instead of
    filtering an ``(m, n_samples)`` matrix — the dense current matrix
    is never materialized;
  - every acquisition is a fan-out over N >= 1 sensors
    (:meth:`FusedAcquisitionKernel.acquire_many`; ``acquire`` is the
    N=1 case): the AES stage, the noise fill and the quantisation draws
    are computed once, and each sensor is sampled in a single pass by
    :func:`repro.kernels.fanout.sample_sensor` (the C sampler when it
    built, else its numpy oracle) off a uniform-grid moments lookup.

Both kernels consume the *identical* RNG stream (same draws, same
order), so for a fixed seed they differ only by floating-point
summation order — a few ULPs of voltage, which virtually never moves a
rounded integer readout.  Determinism across worker counts and chunk
sizes is inherited unchanged: a kernel is a pure function of (block,
rng), and the engine's shard plan fixes both.

Kernels are stateless apart from caches; instances are shared via
:func:`get_kernel` and travel to worker processes with the pickled
acquisition harness (caches are dropped on pickle and rebuilt once per
worker).
"""

from __future__ import annotations

import abc
import weakref
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from repro.core.sensor import SamplingMethod
from repro.errors import ConfigurationError
from repro.kernels import fanout
from repro.kernels.basis import step_response_basis
from repro.kernels.profile import StageProfile
from repro.victims.aes.core import AES128

#: Lead-in cycles the acquisition path uses (pre-trigger margin).  The
#: fused droop decomposition needs at least one: it is what pins the
#: filter's initial steady state to the base current.
LEAD_IN_CYCLES = 1

#: Floor applied to the interpolated readout sigma (matches the
#: reference ``sample_readouts`` floor).
SIGMA_FLOOR = 1e-9


class AcquisitionKernel(abc.ABC):
    """One implementation of the AES-trace acquisition block."""

    #: Registry name of the kernel.
    name: ClassVar[str] = ""

    @abc.abstractmethod
    def acquire(
        self,
        acquisition,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one vectorized block.

        ``acquisition`` is the :class:`repro.traces.acquisition.
        AESTraceAcquisition` harness (duck-typed here to keep the
        dependency one-directional).  Returns ``(readouts, ciphertexts)``
        with shapes ``(m, n_samples)`` int16 and ``(m, 16)`` uint8.
        """

    def acquire_many(
        self,
        acquisitions,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
        skip=(),
    ) -> list:
        """Fan one block out to several acquisitions.

        The contract every implementation must honour: ``results[i]`` is
        bit-identical to restoring ``rng`` to its state at entry and
        running ``acquire(acquisitions[i], ...)`` alone, and on return
        the generator is left exactly where that single ``acquire``
        would have left it (the fan-out acquisitions model N sensors
        observing *one* victim run, so they share one RNG stream).  With
        heterogeneous noise models the final state is that of the last
        non-skipped acquisition's run.

        Indices in ``skip`` (e.g. per-sensor cache hits) yield ``None``
        without being computed; at least one index must remain, or the
        generator is left untouched.

        This generic version (the reference kernel's) replays the block
        per acquisition by saving and restoring the bit-generator state
        — correct for any kernel, with no shared-pass savings.  The
        fused kernel overrides it with the shared pass and derives
        ``acquire`` from it.
        """
        skip = frozenset(skip)
        results: list = [None] * len(acquisitions)
        if not acquisitions:
            return results
        state = rng.bit_generator.state
        for index, acquisition in enumerate(acquisitions):
            if index in skip:
                continue
            rng.bit_generator.state = state
            results[index] = self.acquire(
                acquisition, aes, plaintexts, rng, n_samples, profile=profile
            )
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def _aes_stage(hw_model, aes: AES128, plaintexts, profile, acct):
    """Shared single-pass AES stage: round states once, HDs and
    ciphertexts derived from the same array."""
    states = aes.round_states(plaintexts)
    hd = hw_model.cycle_hamming_distances(aes, plaintexts, states=states)
    cts = states[:, -1].copy()
    acct.account(states, hd, cts)
    return hd, cts


class ReferenceAcquisitionKernel(AcquisitionKernel):
    """The unfused pipeline, kept as the differential-testing oracle."""

    name: ClassVar[str] = "reference"

    def acquire(
        self,
        acquisition,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        profile = profile if profile is not None else StageProfile()
        m = plaintexts.shape[0]
        sensor = acquisition.sensor
        sensor_pos = sensor.require_position()
        kappa = acquisition.coupling.kappa(sensor_pos, acquisition.aes_position)
        dt = acquisition.hw_model.sensor_clock.period

        with profile.stage("aes", items=m) as acct:
            hd, cts = _aes_stage(acquisition.hw_model, aes, plaintexts, profile, acct)
        with profile.stage("pdn", items=m) as acct:
            currents = acquisition.hw_model.current_waveform(hd, n_samples=n_samples)
            droop = kappa * acquisition.coupling.filter_currents(currents, dt)
            acct.account(currents, droop)
        with profile.stage("sensor", items=m) as acct:
            volts = sensor.constants.v_nominal - droop
            volts += acquisition.noise.sample(m * n_samples, rng).reshape(m, n_samples)
            readouts = sensor.sample_readouts(
                volts, rng=rng, method=SamplingMethod.NORMAL
            ).astype(np.int16)
            acct.account(volts, readouts)
        return readouts, cts


class _TableInterpolant:
    """Uniform-grid view of a sensor's voltage->moments table.

    Precomputes per-cell slopes so the fused kernel evaluates both the
    mean and sigma tables from one shared index/fraction pass.
    """

    __slots__ = ("table", "lo", "inv_step", "last_cell", "mu", "dmu", "sigma", "dsigma")

    def __init__(self, table: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        grid, mu_t, sigma_t = table
        self.table = table
        self.lo = float(grid[0])
        self.inv_step = (len(grid) - 1) / float(grid[-1] - grid[0])
        self.last_cell = len(grid) - 2
        self.mu = mu_t
        self.dmu = np.diff(mu_t)
        self.sigma = sigma_t
        self.dsigma = np.diff(sigma_t)


#: Per-process interpolant cache, keyed by sensor instance.  Entries are
#: invalidated by identity of the sensor's cached table tuple, so
#: ``invalidate_table()`` (tap changes) naturally refreshes them.
_TABLE_INTERPOLANTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _table_interpolant(sensor) -> _TableInterpolant:
    table = sensor._moments_table()
    interp = _TABLE_INTERPOLANTS.get(sensor)
    if interp is None or interp.table is not table:
        interp = _TableInterpolant(table)
        _TABLE_INTERPOLANTS[sensor] = interp
    return interp


class FusedAcquisitionKernel(AcquisitionKernel):
    """Fused LTI acquisition kernel (the default).

    See the module docstring for the algebra.  Per-configuration
    weights — the sign-folded, gain-scaled basis and the nominal-voltage
    offset — are cached on the instance and rebuilt lazily after
    pickling (worker processes pay the tiny basis build once).
    """

    name: ClassVar[str] = "fused"

    def __init__(self) -> None:
        self._weights: Dict[tuple, Tuple[np.ndarray, float]] = {}
        self._scratch_size = -1
        self._scratch: Dict[str, np.ndarray] = {}
        self._fanout_scratch: Dict[str, np.ndarray] = {}

    # -- pickling: caches are per-process ------------------------------
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()

    def _workspace(self, size: int) -> Dict[str, np.ndarray]:
        """Per-process scratch arrays for one flattened block.

        The big temporaries (~6 MB each at the default block shape) are
        reused across blocks, so the steady state allocates nothing but
        the returned readouts.  Not thread-safe — the engine
        parallelizes across processes.
        """
        if self._scratch_size != size:
            self._scratch = {
                "volts": np.empty(size),
                "noise": np.empty(size),
                "draw": np.empty(size),
            }
            self._scratch_size = size
        return self._scratch

    # ------------------------------------------------------------------
    def _droop_weights(
        self, acquisition, kappa: float, n_samples: int
    ) -> Tuple[np.ndarray, float]:
        """``(weights, offset)`` such that ``volts = offset + hd @ weights``
        (before noise): ``weights = -(kappa * per_bit) * B`` and
        ``offset = v_nominal - kappa * base``."""
        hw = acquisition.hw_model
        spc = hw.samples_per_cycle
        dt = hw.sensor_clock.period
        pole = float(np.exp(-dt / acquisition.coupling.constants.pdn_tau))
        per_bit = hw.constants.aes_current_per_bit
        base = hw.constants.aes_base_current
        v_nominal = acquisition.sensor.constants.v_nominal
        key = (spc, n_samples, pole, kappa, per_bit, base, v_nominal)
        cached = self._weights.get(key)
        if cached is not None:
            return cached
        basis = step_response_basis(
            AES128.CYCLES_PER_BLOCK, spc, n_samples, LEAD_IN_CYCLES, pole
        )
        weights = basis.scaled(-(kappa * per_bit))
        offset = v_nominal - kappa * base
        if len(self._weights) >= 64:
            self._weights.clear()
        self._weights[key] = (weights, offset)
        return weights, offset

    # ------------------------------------------------------------------
    def acquire(
        self,
        acquisition,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One sensor is the fan-out with N=1."""
        return self.acquire_many(
            [acquisition], aes, plaintexts, rng, n_samples, profile=profile
        )[0]

    @staticmethod
    def _shareable(acquisitions) -> bool:
        """Whether one shared AES+noise+draw pass serves every
        acquisition bit-exactly: value-equal hardware and noise models
        (sensors, couplings and AES positions are free to differ — they
        only feed the per-sensor droop)."""
        first = acquisitions[0]
        hw_token = first.hw_model.cache_token()
        noise_token = first.noise.cache_token()
        return all(
            (acq.hw_model is first.hw_model or acq.hw_model.cache_token() == hw_token)
            and (acq.noise is first.noise or acq.noise.cache_token() == noise_token)
            for acq in acquisitions[1:]
        )

    def acquire_many(
        self,
        acquisitions,
        aes: AES128,
        plaintexts: np.ndarray,
        rng: np.random.Generator,
        n_samples: int,
        profile: Optional[StageProfile] = None,
        skip=(),
    ) -> list:
        """Shared-pass fan-out (see the base method for the contract).

        The AES stage, the voltage-noise fill and the quantisation
        draws are computed once for the whole fan-out; each sensor then
        pays only its own droop matmul and a single-pass sampling loop
        (:func:`repro.kernels.fanout.sample_sensor`).  At N=8
        placements on the default campaign this is ~5x the cost of one
        sensor instead of 8x.  Returned tuples share one ciphertext
        array.

        Acquisitions that cannot share a pass (mixed hardware or noise
        models) each get their own pass from the entry RNG state.
        """
        skip = frozenset(skip)
        live = [i for i in range(len(acquisitions)) if i not in skip]
        results: list = [None] * len(acquisitions)
        if not live:
            return results
        profile = profile if profile is not None else StageProfile()
        if self._shareable([acquisitions[i] for i in live]):
            groups = [live]
        else:
            groups = [[i] for i in live]
        state = rng.bit_generator.state
        for group in groups:
            rng.bit_generator.state = state
            self._shared_pass(
                acquisitions, group, aes, plaintexts, rng, n_samples,
                profile, results,
            )
        return results

    def _shared_pass(
        self, acquisitions, indices, aes, plaintexts, rng, n_samples,
        profile, results,
    ) -> None:
        """One AES+noise+draw pass sampled by ``acquisitions[indices]``,
        consuming the RNG exactly like the reference kernel: the
        voltage noise first, then one Gaussian draw per readout."""
        m = plaintexts.shape[0]
        size = m * n_samples
        first = acquisitions[indices[0]]

        with profile.stage("aes", items=m) as acct:
            hd, cts = _aes_stage(first.hw_model, aes, plaintexts, profile, acct)
        hdf = hd.astype(np.float64)

        ws = self._workspace(size)
        noise_buf, draw_buf, volts = ws["noise"], ws["draw"], ws["volts"]
        with profile.stage("sensor"):
            noise = first.noise
            if noise.drift_rms or noise.burst_rate:
                noise_buf[:] = noise.sample(size, rng)
            elif noise.white_rms:
                # Generator.normal(0, rms, n) computes rms * z
                # elementwise, so this is bit-identical to
                # noise.sample() without the temporary.
                rng.standard_normal(out=noise_buf)
                noise_buf *= noise.white_rms
            else:
                noise_buf[:] = 0.0
            rng.standard_normal(out=draw_buf)

        if not self._fanout_scratch:
            self._fanout_scratch = fanout.make_scratch()
        for index in indices:
            acquisition = acquisitions[index]
            sensor = acquisition.sensor
            kappa = acquisition.coupling.kappa(
                sensor.require_position(), acquisition.aes_position
            )
            with profile.stage("pdn", items=m) as acct:
                weights, offset = self._droop_weights(acquisition, kappa, n_samples)
                # (m, 11) @ (11, n_samples): the filtered droop of the
                # whole block in one BLAS call; the dense current
                # matrix and the sequential recurrence are gone.
                np.matmul(hdf, weights, out=volts.reshape(m, n_samples))
                acct.account(volts)
            with profile.stage("sensor", items=m) as acct:
                out = np.empty(size, dtype=np.int16)
                fanout.sample_sensor(
                    sensor,
                    _table_interpolant(sensor),
                    volts,
                    offset,
                    noise_buf,
                    draw_buf,
                    SIGMA_FLOOR,
                    out,
                    self._fanout_scratch,
                )
                acct.account(out)
            results[index] = (out.reshape(m, n_samples), cts)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_KERNEL_TYPES: Dict[str, type] = {
    FusedAcquisitionKernel.name: FusedAcquisitionKernel,
    ReferenceAcquisitionKernel.name: ReferenceAcquisitionKernel,
}
_INSTANCES: Dict[str, AcquisitionKernel] = {}


def available_kernels() -> Tuple[str, ...]:
    """Registered kernel names, sorted."""
    return tuple(sorted(_KERNEL_TYPES))


def default_kernel_name() -> str:
    """The kernel ``kernel=None`` resolves to: the one the active
    compute backend (``--backend`` / ``REPRO_BACKEND``) implies."""
    from repro.backends import active_backend

    return active_backend().kernel


def get_kernel(kernel=None) -> AcquisitionKernel:
    """Resolve a kernel argument to a (shared) kernel instance.

    Accepts ``None`` (the active backend's kernel), a registered name,
    or an :class:`AcquisitionKernel` instance (returned unchanged).
    """
    if isinstance(kernel, AcquisitionKernel):
        return kernel
    if kernel is None:
        kernel = default_kernel_name()
    try:
        kernel_type = _KERNEL_TYPES[kernel]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; available: {', '.join(available_kernels())}"
        ) from None
    instance = _INSTANCES.get(kernel)
    if instance is None:
        instance = _INSTANCES[kernel] = kernel_type()
    return instance
