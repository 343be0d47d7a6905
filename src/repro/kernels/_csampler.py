"""Optional native library: the fused sensor-sampling loop and the
conditional-sum CPA fold.

Two inner loops dominate a campaign, and numpy executes each as many
passes over a block:

* the fan-out acquisition path (:mod:`repro.kernels.fanout`) runs the
  per-readout chain *voltage -> table cell -> linear interpolation ->
  Gaussian draw -> quantise* as ~15 numpy passes; ``sample_block`` does
  it in one;
* the CPA accumulate step (:mod:`repro.attacks.cpa`) needs the exact
  sums of all 16x256 last-round hypotheses against every sample;
  ``cpa_fold`` gets them from per-byte conditional sums and 256-point
  Walsh-Hadamard transforms (see :class:`CpaKernel`).

The library is strictly optional and strictly an accelerator:

* it is compiled lazily with the system C compiler (``cc``) and cached
  on disk keyed by a hash of the source and flags, so later processes
  just ``dlopen`` it;
* ``-ffp-contract=off`` is mandatory — FMA contraction would change the
  double roundings the sensor model's bit-exactness contract depends
  on — and each kernel is self-tested against a numpy replica of its
  exact result before it is ever trusted;
* any failure (no compiler, unsupported flags, self-test mismatch)
  silently resolves that kernel to "not available" and callers fall
  back to their numpy oracle, which is bit-identical, just slower;
* :data:`ENABLED` is the one process-wide switch (the ``numpy``
  backend turns it off), and ``REPRO_CSAMPLER=0`` disables the library
  outright (``1``/``auto``/unset try to build).

``sample_block`` replicates, operation for operation, the arithmetic
of the numpy oracle ``repro.kernels.fanout._sample_numpy`` — see
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
#include <stdlib.h>
#include <string.h>
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

/* ---- Conditional-sum CPA fold (see CpaKernel) -------------------------
 *
 * For key byte j with partner p, trace i has c = ct[i][j], b = ct[i][p]
 * and hypothesis h(g) = HW(a ^ b) with a = InvSBox(c ^ g), i.e.
 *     h = sum_k a_k (1 - 2 b_k) + HW(b).
 * With F_k(x) = bit k of InvSBox(x), every sum over traces becomes an
 * XOR-correlation over c, which a 256-point Walsh-Hadamard transform
 * (WHT) diagonalises:
 *     s_xy[g] = sum_k (F_k * D_k)[g] + sum_i HW(b_i) t_i,
 *     D_k[c]  = sum_{i: c_i = c} (1 - 2 b_k) t_i = S[c][0] - 2 S[c][1+k],
 *     (F * D)[g] = sum_c F(c ^ g) D[c] = WHT(WHT(F) . WHT(D))[g] / 256,
 * where S[c][0] = sum t and S[c][1+k] = sum b_k t over the traces with
 * c_i = c.  s_x and s_x2 follow the same way from per-c moment rows of
 * b (sigma_k = 1 - 2 b_k):
 *     h   = sum_k a_k sigma_k + HW(b),
 *     h^2 = sum_k a_k (1 + 2 HW(b) sigma_k)
 *           + 2 sum_{k<l} a_k a_l sigma_k sigma_l + HW(b)^2.
 *
 * Exactness.  The caller guarantees m * P < 2^31 with P = max(max|t|, 64).
 *  - Trace sums S and every value of D_k's forward WHT are +-sums of
 *    distinct readouts, so |.| <= sum_i |t_i| <= m P < 2^31: int32.
 *  - WHT(F_k) is a +-sum of 256 bits, |.| <= 256; so
 *    |sum_k WHT(F_k) WHT(D_k)| <= 8 * 2^8 * 2^31 = 2^42, and the inverse
 *    WHT (256 terms) stays below 2^50: int64.  That WHT is 256 times an
 *    integer, so the division by 256 is exact.
 *  - Moment rows have |entry| <= 64 (HW(b)^2), so per-c moment sums
 *    are below 64 m < 2^31 (int32); their transforms are int64 like the
 *    above.
 *  - s_y2 <= m max|t|^2 < 2^62: int64.
 * Every result is an exact integer; the caller's second guard
 * (m max|t|^2 < 2^53) makes its float64 conversion exact too.
 */

#define CPA_TS 32 /* samples per tile */
#define CPA_NW 9  /* trace weights per (j, c): 1, b_0..b_7 */
#define CPA_NM 48 /* moment row: sigma (8), 1+2HW sigma (8), sigma sigma (28), HW, HW^2, pad */

/* In-place 256-point WHT over the rows of a (256, w) int64 block. */
static void wht_rows(int64_t *v, long w)
{
    for (long h = 1; h < 256; h <<= 1)
        for (long i = 0; i < 256; i += 2 * h)
            for (long r = i; r < i + h; r++) {
                int64_t *a = v + r * w, *b = a + h * w;
                for (long s = 0; s < w; s++) {
                    int64_t x = a[s], y = b[s];
                    a[s] = x + y;
                    b[s] = x - y;
                }
            }
}

/* Three WHT stages over the eight values x[0..7] (pair distances 1, 2, 4). */
#define BFLY8(T, x)                                                          \
    do {                                                                     \
        T y0 = x[0] + x[1], y1 = x[0] - x[1], y2 = x[2] + x[3], y3 = x[2] - x[3]; \
        T y4 = x[4] + x[5], y5 = x[4] - x[5], y6 = x[6] + x[7], y7 = x[6] - x[7]; \
        T z0 = y0 + y2, z2 = y0 - y2, z1 = y1 + y3, z3 = y1 - y3;            \
        T z4 = y4 + y6, z6 = y4 - y6, z5 = y5 + y7, z7 = y5 - y7;            \
        x[0] = z0 + z4; x[4] = z0 - z4; x[1] = z1 + z5; x[5] = z1 - z5;      \
        x[2] = z2 + z6; x[6] = z2 - z6; x[3] = z3 + z7; x[7] = z3 - z7;      \
    } while (0)

/* WHT stages h, 2h, 4h over a (256, CPA_TS) tile, first W columns. */
#define DEFINE_PASS3(NAME, T)                                                \
    static void NAME(T *v, long h, long W)                                   \
    {                                                                        \
        const long d = h * CPA_TS;                                           \
        for (long base = 0; base < 256; base += 8 * h)                       \
            for (long r = base; r < base + h; r++) {                         \
                T *p = v + r * CPA_TS;                                       \
                for (long s = 0; s < W; s++) {                               \
                    T x[8];                                                  \
                    for (int i = 0; i < 8; i++) x[i] = p[i * d + s];         \
                    BFLY8(T, x);                                             \
                    for (int i = 0; i < 8; i++) p[i * d + s] = x[i];         \
                }                                                            \
            }                                                                \
    }
DEFINE_PASS3(pass3_i32, int32_t)
DEFINE_PASS3(pass3_i64, int64_t)

/* Stages 1, 2, 4 of D_k's transform, reading D_k straight from the tile
 * sums (S[c][0] - S[c][1+k]) - S[c][1+k] (no intermediate overflows);
 * also adds S[c][1+k] into thb. */
static void first_pass(const int32_t *S, long k, int32_t *D, int64_t *thb, long W)
{
    const long cs = CPA_NW * CPA_TS;
    for (long c0 = 0; c0 < 256; c0 += 8) {
        const int32_t *q = S + c0 * cs, *qk = q + (1 + k) * CPA_TS;
        int32_t *p = D + c0 * CPA_TS;
        for (long s = 0; s < W; s++) {
            int32_t x[8];
            int64_t sum = 0;
            for (int i = 0; i < 8; i++) {
                int32_t bk = qk[i * cs + s];
                sum += bk;
                x[i] = (q[i * cs + s] - bk) - bk;
            }
            thb[s] += sum;
            BFLY8(int32_t, x);
            for (int i = 0; i < 8; i++) p[i * CPA_TS + s] = x[i];
        }
    }
}

/* Stages 64, 128 of D_k's transform, then Y[u] (+)= WHT(F_k)[u] * D^[u]. */
static void last_mac(const int32_t *D, const int64_t *f, int64_t *Y, int init, long W)
{
    const long d = 64 * CPA_TS;
    for (long r = 0; r < 64; r++) {
        const int32_t *p = D + r * CPA_TS;
        int64_t *y = Y + r * CPA_TS;
        int64_t f0 = f[r], f1 = f[r + 64], f2 = f[r + 128], f3 = f[r + 192];
        for (long s = 0; s < W; s++) {
            int32_t x0 = p[s], x1 = p[d + s], x2 = p[2 * d + s], x3 = p[3 * d + s];
            int32_t y0 = x0 + x1, y1 = x0 - x1, y2 = x2 + x3, y3 = x2 - x3;
            int64_t o0 = f0 * (int64_t)(y0 + y2), o1 = f1 * (int64_t)(y1 + y3);
            int64_t o2 = f2 * (int64_t)(y0 - y2), o3 = f3 * (int64_t)(y1 - y3);
            if (init) {
                y[s] = o0; y[d + s] = o1; y[2 * d + s] = o2; y[3 * d + s] = o3;
            } else {
                y[s] += o0; y[d + s] += o1; y[2 * d + s] += o2; y[3 * d + s] += o3;
            }
        }
    }
}

/* Stages 64, 128 of Y's inverse transform, written out as
 * s_xy[g][s] = WHT(Y)[g][s] / 256 + thb[s] for the w live columns. */
static void last_out(const int64_t *Y, const int64_t *thb, double *out, long ns, long w)
{
    const long d = 64 * CPA_TS;
    for (long r = 0; r < 64; r++) {
        const int64_t *p = Y + r * CPA_TS;
        double *o = out + r * ns;
        for (long s = 0; s < w; s++) {
            int64_t x0 = p[s], x1 = p[d + s], x2 = p[2 * d + s], x3 = p[3 * d + s];
            int64_t y0 = x0 + x1, y1 = x0 - x1, y2 = x2 + x3, y3 = x2 - x3;
            o[s] = (double)((y0 + y2) / 256 + thb[s]);
            o[64 * ns + s] = (double)((y1 + y3) / 256 + thb[s]);
            o[128 * ns + s] = (double)((y0 - y2) / 256 + thb[s]);
            o[192 * ns + s] = (double)((y1 - y3) / 256 + thb[s]);
        }
    }
}

/* Exact chunk sums of all 16x256 hypotheses against an (m, ns) int32
 * chunk: s_x, s_x2 (16, 256), s_xy (16, 256, ns), s_y, s_y2 (ns).
 * fhat (8, 256) and ghat (28, 256) are WHT(F_k) and WHT(F_k F_l), mom
 * (256, CPA_NM) the moment row of each partner byte.  Returns 0, or -1
 * when scratch allocation fails (outputs then undefined). */
int cpa_fold(
    const int32_t *t, long m, long ns, const uint8_t *ct, const long *partner,
    const int64_t *fhat, const int64_t *ghat, const int32_t *mom,
    double *s_x, double *s_x2, double *s_xy, double *s_y, double *s_y2)
{
    int32_t *S = malloc(sizeof(int32_t) * 256 * CPA_NW * CPA_TS);
    int32_t *D = malloc(sizeof(int32_t) * 256 * CPA_TS);
    int64_t *Y = malloc(sizeof(int64_t) * 256 * CPA_TS);
    int32_t *M = malloc(sizeof(int32_t) * 256 * CPA_NM);
    int64_t *V = malloc(sizeof(int64_t) * 256 * CPA_NM);
    int64_t *Y2 = malloc(sizeof(int64_t) * 256 * 2);
    int64_t *sy = calloc(ns, sizeof(int64_t));
    int64_t *sy2 = calloc(ns, sizeof(int64_t));
    int32_t *tile = malloc(sizeof(int32_t) * m * CPA_TS);
    int32_t *order = malloc(sizeof(int32_t) * 16 * m);
    uint8_t *pb = malloc(16 * m);
    int32_t *first = malloc(sizeof(int32_t) * 16 * 257);
    int rc = -1;
    if (!S || !D || !Y || !M || !V || !Y2 || !sy || !sy2 || !tile || !order || !pb || !first)
        goto out;

    for (long i = 0; i < m; i++) {
        const int32_t *row = t + i * ns;
        for (long s = 0; s < ns; s++) {
            int64_t x = row[s];
            sy[s] += x;
            sy2[s] += x * x;
        }
    }
    for (long s = 0; s < ns; s++) {
        s_y[s] = (double)sy[s];
        s_y2[s] = (double)sy2[s];
    }

    for (long j = 0; j < 16; j++) {
        const long p = partner[j];
        /* Bucket the traces by c (counting sort), keeping each one's b. */
        int32_t *fj = first + j * 257, *oj = order + j * m, pos[256];
        uint8_t *bj = pb + j * m;
        memset(fj, 0, sizeof(int32_t) * 257);
        for (long i = 0; i < m; i++) fj[ct[i * 16 + j] + 1]++;
        for (long c = 0; c < 256; c++) fj[c + 1] += fj[c];
        memcpy(pos, fj, sizeof pos);
        for (long i = 0; i < m; i++) {
            int32_t n = pos[ct[i * 16 + j]]++;
            oj[n] = (int32_t)i;
            bj[n] = ct[i * 16 + p];
        }

        /* s_x, s_x2 from the per-c moment sums. */
        memset(M, 0, sizeof(int32_t) * 256 * CPA_NM);
        for (long i = 0; i < m; i++) {
            int32_t *d = M + (long)ct[i * 16 + j] * CPA_NM;
            const int32_t *row = mom + (long)ct[i * 16 + p] * CPA_NM;
            for (long x = 0; x < CPA_NM; x++) d[x] += row[x];
        }
        for (long x = 0; x < 256 * CPA_NM; x++) V[x] = M[x];
        wht_rows(V, CPA_NM);
        for (long u = 0; u < 256; u++) {
            const int64_t *vu = V + u * CPA_NM;
            int64_t a = 0, b = 0;
            for (long k = 0; k < 8; k++) {
                a += fhat[k * 256 + u] * vu[k];
                b += fhat[k * 256 + u] * vu[8 + k];
            }
            for (long q = 0; q < 28; q++) b += 2 * ghat[q * 256 + u] * vu[16 + q];
            Y2[2 * u] = a;
            Y2[2 * u + 1] = b;
        }
        wht_rows(Y2, 2);
        /* Row 0 of a WHT is the plain sum over c: V[44], V[45] are
         * sum HW(b) and sum HW(b)^2. */
        for (long g = 0; g < 256; g++) {
            s_x[j * 256 + g] = (double)(Y2[2 * g] / 256 + V[44]);
            s_x2[j * 256 + g] = (double)(Y2[2 * g + 1] / 256 + V[45]);
        }
    }

    for (long s0 = 0; s0 < ns; s0 += CPA_TS) {
        const long w = ns - s0 < CPA_TS ? ns - s0 : CPA_TS;
        const long W = (w + 15) & ~15L; /* transform width, whole vectors */
        for (long i = 0; i < m; i++) {
            int32_t *dst = tile + i * CPA_TS;
            memcpy(dst, t + i * ns + s0, sizeof(int32_t) * w);
            for (long s = w; s < CPA_TS; s++) dst[s] = 0;
        }
        for (long j = 0; j < 16; j++) {
            const int32_t *fj = first + j * 257, *oj = order + j * m;
            const uint8_t *bj = pb + j * m;
            /* Trace sums S[c][w][:], one bucket at a time (branch-free
             * over the bits of b). */
            for (long c = 0; c < 256; c++) {
                int32_t acc[CPA_NW][CPA_TS];
                memset(acc, 0, sizeof acc);
                for (long n = fj[c]; n < fj[c + 1]; n++) {
                    const int32_t *row = tile + (long)oj[n] * CPA_TS;
                    const unsigned b = bj[n];
                    for (long s = 0; s < CPA_TS; s++) acc[0][s] += row[s];
                    for (long k = 0; k < 8; k++) {
                        const int32_t mask = -(int32_t)((b >> k) & 1);
                        for (long s = 0; s < CPA_TS; s++) acc[1 + k][s] += row[s] & mask;
                    }
                }
                memcpy(S + c * CPA_NW * CPA_TS, acc, sizeof acc);
            }
            int64_t thb[CPA_TS];
            memset(thb, 0, sizeof thb);
            for (long k = 0; k < 8; k++) {
                first_pass(S, k, D, thb, W);
                pass3_i32(D, 8, W);
                last_mac(D, fhat + k * 256, Y, k == 0, W);
            }
            pass3_i64(Y, 1, W);
            pass3_i64(Y, 8, W);
            last_out(Y, thb, s_xy + j * 256 * ns + s0, ns, w);
        }
    }
    rc = 0;
out:
    free(S); free(D); free(Y); free(M); free(V); free(Y2); free(sy); free(sy2);
    free(tile); free(order); free(pb); free(first);
    return rc;
}
"""

#: Flag sets tried in order; per kernel, the first one that compiles
#: *and* passes the kernel's self-test wins.  ``-ffp-contract=off`` is non-negotiable (see
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


class CpaKernel:
    """ctypes handle around one compiled ``cpa_fold``.

    :meth:`fold` returns the exact per-chunk sums the CPA accumulator
    folds — ``s_x``/``s_x2`` ``(16, 256)``, ``s_xy`` ``(16, 256, ns)``,
    ``s_y``/``s_y2`` ``(ns,)``, as float64 — from per-byte conditional
    sums and 256-point Walsh-Hadamard transforms (derivation and int32/
    int64 bounds in the C source).  The caller must guarantee the
    exactness bound: ``m * max(max|t|, 64) < 2**31`` and
    ``m * max|t|**2 < 2**53`` (checked by :mod:`repro.attacks.cpa`).
    """

    def __init__(self, lib: ctypes.CDLL):
        self._fn = lib.cpa_fold
        self._fn.restype = ctypes.c_int
        self._fn.argtypes = [
            ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
            *(ctypes.c_void_p,) * 10,
        ]
        self._tables = _cpa_tables()

    def fold(self, traces: np.ndarray, cts: np.ndarray):
        """Chunk sums of an ``(m, ns)`` integer chunk and its ``(m,
        16)`` ciphertexts, or ``None`` when the kernel could not
        allocate its scratch."""
        traces = np.ascontiguousarray(traces, dtype=np.int32)
        cts = np.ascontiguousarray(cts, dtype=np.uint8)
        if traces.ndim != 2 or cts.shape != (traces.shape[0], 16):
            raise ValueError(
                f"cpa_fold needs (m, ns) traces and (m, 16) ciphertexts, "
                f"got {traces.shape} and {cts.shape}"
            )
        m, ns = traces.shape
        tables = self._tables
        out = (
            np.empty((16, 256)), np.empty((16, 256)),
            np.empty((16, 256, ns)), np.empty(ns), np.empty(ns),
        )
        rc = self._fn(
            traces.ctypes.data, m, ns, cts.ctypes.data,
            *(tables[name].ctypes.data for name in ("partner", "fhat", "ghat", "mom")),
            *(arr.ctypes.data for arr in out),
        )
        return None if rc else out


def _wht(a: np.ndarray) -> np.ndarray:
    """256-point Walsh-Hadamard transform over the last axis (int64)."""
    out = np.array(a, dtype=np.int64, order="C")  # reshape below must be a view
    h = 1
    while h < 256:
        pairs = out.reshape(*out.shape[:-1], -1, 2, h)
        lo, hi = pairs[..., 0, :].copy(), pairs[..., 1, :].copy()
        pairs[..., 0, :] = lo + hi
        pairs[..., 1, :] = lo - hi
        h *= 2
    return out


def _cpa_tables() -> dict:
    """The constant inputs of ``cpa_fold``: partner byte indices,
    ``WHT(F_k)``, ``WHT(F_k F_l)`` and the moment row of each partner
    byte."""
    from repro.victims.aes.core import SHIFT_ROWS_IDX
    from repro.victims.aes.sbox import INV_SBOX

    x = np.arange(256)
    bits = (x[:, None] >> np.arange(8)) & 1
    f = ((INV_SBOX.astype(np.int64)[:, None] >> np.arange(8)) & 1).T
    pairs = [(k, l) for k in range(8) for l in range(k + 1, 8)]
    sigma = 1 - 2 * bits
    hw = bits.sum(axis=1)
    mom = np.zeros((256, 48), dtype=np.int32)
    mom[:, 0:8] = sigma
    mom[:, 8:16] = 1 + 2 * hw[:, None] * sigma
    mom[:, 16:44] = np.stack([sigma[:, k] * sigma[:, l] for k, l in pairs], axis=1)
    mom[:, 44] = hw
    mom[:, 45] = hw * hw
    return {
        "partner": np.ascontiguousarray(SHIFT_ROWS_IDX, dtype=np.int64),
        "fhat": _wht(f),
        "ghat": _wht(np.stack([f[k] * f[l] for k, l in pairs])),
        "mom": mom,
    }


def _cpa_sums_numpy(traces: np.ndarray, cts: np.ndarray):
    """:meth:`CpaKernel.fold`'s result computed directly: one ``(256,
    m)`` hypothesis block and one integer matrix product per key byte.
    The kernel's self-test oracle (integer arithmetic keeps BLAS, and
    its buffers, out of every process that resolves the kernel)."""
    from repro.victims.aes.core import SHIFT_ROWS_IDX
    from repro.victims.aes.sbox import HW8, INV_SBOX

    y = np.asarray(traces, dtype=np.int64)
    guesses = np.arange(256)[:, None]
    s_x, s_x2 = np.empty((16, 256)), np.empty((16, 256))
    s_xy = np.empty((16, 256, y.shape[1]))
    for j in range(16):
        pred = INV_SBOX[cts[:, j][None, :] ^ guesses]
        h = HW8[pred ^ cts[:, SHIFT_ROWS_IDX[j]][None, :]].astype(np.int64)
        s_x[j] = h.sum(axis=1)
        s_x2[j] = (h * h).sum(axis=1)
        s_xy[j] = h @ y
    return s_x, s_x2, s_xy, y.sum(axis=0), (y * y).sum(axis=0)


def _cpa_self_test(kernel: CpaKernel) -> bool:
    """Compare the kernel against :func:`_cpa_sums_numpy` on a chunk
    with negative readouts, partner bytes 0x00 and 0xFF, and one full
    plus one ragged sample tile."""
    rng = np.random.default_rng(2024)
    traces = rng.integers(-300, 300, size=(40, 33), dtype=np.int32)
    cts = rng.integers(0, 256, size=(40, 16), dtype=np.uint8)
    cts[:3] = 0x00
    cts[3:6] = 0xFF
    got = kernel.fold(traces, cts)
    if got is None:
        return False
    want = _cpa_sums_numpy(traces, cts)
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def _cache_dir() -> str:
    uid = os.getuid() if hasattr(os, "getuid") else 0
    path = os.path.join(tempfile.gettempdir(), f"repro-csampler-{uid}")
    os.makedirs(path, exist_ok=True)
    return path


def _compile(flags) -> ctypes.CDLL:
    """Build (or reuse) the shared library for one flag set."""
    all_flags = (*flags, *_BASE_FLAGS)
    digest = hashlib.sha256(
        ("\x00".join((_SOURCE, *all_flags))).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"native-{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"native-{digest}.c")
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


def _resolve(wrap, self_test):
    """The first flag set's kernel that builds and passes
    ``self_test``, or ``None``."""
    if os.environ.get("REPRO_CSAMPLER", "auto").lower() in ("0", "off", "false"):
        return None
    for flags in _FLAG_SETS:
        try:
            kernel = wrap(_compile(flags))
        except (OSError, subprocess.SubprocessError):
            continue
        if self_test(kernel):
            return kernel
    return None


#: The process-wide switch for the native library: when ``False``,
#: :func:`get_sampler` and :func:`get_cpa_kernel` return ``None`` and
#: every caller runs its numpy oracle.  :func:`repro.backends.
#: activate_backend` sets it (``numpy`` off, ``fused`` on).
ENABLED = True

#: Resolved kernels by name (``None`` = unavailable), once per process.
_RESOLVED: dict = {}


def _get(name: str, wrap, self_test):
    if not ENABLED:
        return None
    if name not in _RESOLVED:
        try:
            _RESOLVED[name] = _resolve(wrap, self_test)
        except Exception:
            _RESOLVED[name] = None
    return _RESOLVED[name]


def get_sampler() -> Optional[CSampler]:
    """The process-wide sampler, or ``None`` when unavailable.

    Resolution (compile + self-test) happens once per process; kernel
    instances never hold the handle directly so they stay picklable
    across worker pools.
    """
    return _get("sampler", CSampler, _self_test)


def get_cpa_kernel() -> Optional[CpaKernel]:
    """The process-wide CPA fold kernel, or ``None`` when unavailable
    (resolved once per process, like :func:`get_sampler`)."""
    return _get("cpa", CpaKernel, _cpa_self_test)


def native_built() -> bool:
    """Whether the native library is built and enabled here: at least
    one of its kernels compiled and passed its self-test."""
    return get_sampler() is not None or get_cpa_kernel() is not None


def _reset() -> None:
    """Forget the resolved kernels (test hook, e.g. after changing
    ``REPRO_CSAMPLER``)."""
    _RESOLVED.clear()
