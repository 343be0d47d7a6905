"""Optional C implementation of the fused sensor-sampling inner loop.

The fan-out acquisition path (:mod:`repro.kernels.fanout`) spends most
of its time in the per-readout chain *voltage -> table cell -> linear
interpolation -> Gaussian draw -> quantise*.  numpy executes that chain
as ~15 separate passes over the block; a single C loop does it in one
pass and roughly doubles fan-out throughput on top of the shared-pass
savings.

The extension is strictly optional and strictly an accelerator:

* it is compiled lazily with the system C compiler (``cc``) the first
  time a fan-out block is sampled, and cached on disk keyed by a hash
  of the source and flags, so later processes just ``dlopen`` it;
* ``-ffp-contract=off`` is mandatory — FMA contraction would change the
  double roundings the sensor model's bit-exactness contract depends
  on — and the freshly built library is self-tested against a numpy
  replica of the exact operation sequence before it is ever trusted;
* any failure (no compiler, unsupported flags, self-test mismatch)
  silently resolves to "not available" and callers fall back to the
  tiled numpy path, which is bit-identical, just slower;
* ``REPRO_CSAMPLER=0`` disables it outright (``1``/``auto``/unset try
  to build).

The C loop replicates, operation for operation, the arithmetic of the
numpy oracle ``repro.kernels.fanout._sample_numpy`` — see
:mod:`repro.kernels.fanout` for the contract.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

void sample_block(
    const double *flat, const double *noise, const double *draw,
    long n, double off, double lo, double inv_step, long last_cell,
    const double *dmu, const double *mu0, const double *dsg, const double *sg0,
    double sigma_floor, double out_hi, int16_t *out, double *vmin_out)
{
    double vmin = INFINITY;
    double last = (double)last_cell;
    for (long i = 0; i < n; i++) {
        double t = (flat[i] + off) + noise[i];
        if (t < vmin) vmin = t;
        double p = (t - lo) * inv_step;
        double f = floor(p);
        if (f > last) f = last;
        double frac = p - f;
        if (frac > 1.0) frac = 1.0;
        long ix = (long)f;
        if (ix < 0) ix = 0;
        double a = dmu[ix] * frac;
        double mu = a + mu0[ix];
        double b = dsg[ix] * frac;
        double sg = b + sg0[ix];
        if (sg < sigma_floor) sg = sigma_floor;
        double d = draw[i] * sg;
        d += mu;
        d = rint(d);
        if (d < 0.0) d = 0.0;
        else if (d > out_hi) d = out_hi;
        out[i] = (int16_t)d;
    }
    *vmin_out = vmin;
}
"""

#: Flag sets tried in order; the first one that compiles *and* passes
#: the self-test wins.  ``-ffp-contract=off`` is non-negotiable (see
#: module docstring); ``-march=native`` is merely nice to have.
_FLAG_SETS = (
    ("-O3", "-march=native"),
    ("-O3",),
    ("-O2",),
)
_BASE_FLAGS = ("-fPIC", "-shared", "-ffp-contract=off")

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT16_P = ctypes.POINTER(ctypes.c_int16)


class CSampler:
    """ctypes handle around one compiled ``sample_block`` library."""

    def __init__(self, lib: ctypes.CDLL):
        self._fn = lib.sample_block
        self._fn.restype = None

    def sample(
        self,
        flat: np.ndarray,
        noise: np.ndarray,
        draw: np.ndarray,
        offset: float,
        interp,
        sigma_floor: float,
        out_hi: float,
        out: np.ndarray,
    ) -> float:
        """Fill ``out`` (flat int16) from a flat droop block; return the
        minimum noise-applied voltage for the caller's range check."""
        mu0 = np.ascontiguousarray(interp.mu)
        sg0 = np.ascontiguousarray(interp.sigma)
        dmu = np.ascontiguousarray(interp.dmu)
        dsg = np.ascontiguousarray(interp.dsigma)
        vmin = np.empty(1)
        self._fn(
            flat.ctypes.data_as(_DOUBLE_P),
            noise.ctypes.data_as(_DOUBLE_P),
            draw.ctypes.data_as(_DOUBLE_P),
            ctypes.c_long(flat.size),
            ctypes.c_double(offset),
            ctypes.c_double(interp.lo),
            ctypes.c_double(interp.inv_step),
            ctypes.c_long(interp.last_cell),
            dmu.ctypes.data_as(_DOUBLE_P),
            mu0.ctypes.data_as(_DOUBLE_P),
            dsg.ctypes.data_as(_DOUBLE_P),
            sg0.ctypes.data_as(_DOUBLE_P),
            ctypes.c_double(sigma_floor),
            ctypes.c_double(out_hi),
            out.ctypes.data_as(_INT16_P),
            vmin.ctypes.data_as(_DOUBLE_P),
        )
        return float(vmin[0])


class _Interp:
    """Bag of the interpolant fields the self-test needs."""

    def __init__(self, lo, inv_step, last_cell, mu, dmu, sigma, dsigma):
        self.lo = lo
        self.inv_step = inv_step
        self.last_cell = last_cell
        self.mu = mu
        self.dmu = dmu
        self.sigma = sigma
        self.dsigma = dsigma


def _self_test(sampler: CSampler) -> bool:
    """Compare the library against a numpy replica of the sampling
    operation sequence on inputs that hit every clamp branch."""
    mu0 = np.array([3.0, 7.5, 12.25, 40.0, 55.5])
    sg0 = np.array([0.5, 1.25, 1e-12, 2.0, 3.5])
    interp = _Interp(
        lo=0.90,
        inv_step=100.0,
        last_cell=3,
        mu=mu0,
        dmu=np.diff(mu0),
        sigma=sg0,
        dsigma=np.diff(sg0),
    )
    # Voltages below the grid floor, above the ceiling and everywhere in
    # between, offset so the `(flat + off) + noise` association matters.
    flat = np.linspace(0.85, 0.97, 64) - 0.01
    noise = np.linspace(-2e-3, 2e-3, 64)
    draw = np.linspace(-3.0, 3.0, 64)
    offset = 0.01
    sigma_floor = 1e-9
    out_hi = 48.0

    got = np.empty(flat.size, dtype=np.int16)
    got_vmin = sampler.sample(
        flat, noise, draw, offset, interp, sigma_floor, out_hi, got
    )

    t = (flat + offset) + noise
    p = (t - interp.lo) * interp.inv_step
    f = np.floor(p)
    np.minimum(f, float(interp.last_cell), out=f)
    frac = p - f
    np.minimum(frac, 1.0, out=frac)
    ix = f.astype(np.intp)
    np.clip(ix, 0, interp.last_cell, out=ix)
    mu = interp.dmu[ix] * frac
    mu += interp.mu[ix]
    sg = interp.dsigma[ix] * frac
    sg += interp.sigma[ix]
    np.maximum(sg, sigma_floor, out=sg)
    d = draw * sg
    d += mu
    np.rint(d, out=d)
    np.clip(d, 0.0, out_hi, out=d)
    want = d.astype(np.int16)

    return bool(np.array_equal(got, want) and got_vmin == float(t.min()))


def _cache_dir() -> str:
    uid = os.getuid() if hasattr(os, "getuid") else 0
    path = os.path.join(tempfile.gettempdir(), f"repro-csampler-{uid}")
    os.makedirs(path, exist_ok=True)
    return path


def _compile(flags) -> Optional[ctypes.CDLL]:
    """Build (or reuse) the shared library for one flag set."""
    all_flags = (*flags, *_BASE_FLAGS)
    digest = hashlib.sha256(
        ("\x00".join((_SOURCE, *all_flags))).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"sampler-{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"sampler-{digest}.c")
        tmp_path = f"{so_path}.tmp-{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_SOURCE)
        subprocess.run(
            ["cc", *all_flags, "-o", tmp_path, src_path],
            check=True,
            capture_output=True,
        )
        os.replace(tmp_path, so_path)  # atomic: concurrent builders race safely
    return ctypes.CDLL(so_path)


def _resolve() -> Optional[CSampler]:
    if os.environ.get("REPRO_CSAMPLER", "auto").lower() in ("0", "off", "false"):
        return None
    for flags in _FLAG_SETS:
        try:
            lib = _compile(flags)
        except (OSError, subprocess.SubprocessError):
            continue
        sampler = CSampler(lib)
        if _self_test(sampler):
            return sampler
    return None


_RESOLVED = False
_SAMPLER: Optional[CSampler] = None


def get_sampler() -> Optional[CSampler]:
    """The process-wide sampler, or ``None`` when unavailable.

    Resolution (compile + self-test) happens once per process; kernel
    instances never hold the handle directly so they stay picklable
    across worker pools.
    """
    global _RESOLVED, _SAMPLER
    if not _RESOLVED:
        try:
            _SAMPLER = _resolve()
        except Exception:
            _SAMPLER = None
        _RESOLVED = True
    return _SAMPLER


def _reset() -> None:
    """Forget the resolved sampler (test hook, e.g. after changing
    ``REPRO_CSAMPLER``)."""
    global _RESOLVED, _SAMPLER
    _RESOLVED = False
    _SAMPLER = None
