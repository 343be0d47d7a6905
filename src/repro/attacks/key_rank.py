"""Key-rank estimation by histogram convolution.

The paper reports attack progress as the key-rank metric: how many key
candidates an attacker would have to test before reaching the true key,
given per-byte scores from the CPA.  Enumerating 2^128 candidates is
impossible; the standard estimator (Glowacz et al., FSE 2015) bins each
byte's 256 scores into a histogram, convolves the sixteen histograms to
get the distribution of full-key scores, and reads the rank off as the
mass above the true key's score.  Binning introduces bounded error,
which is why the metric is reported as an upper and a lower bound —
exactly the two curves in the paper's Fig. 5 and Fig. 6.

Both bounds come from **one** convolution.  Rounding every competitor
up one bin shifts the full-key distribution by exactly 16 bins, so the
upper bound (competitors rounded up, true key rounded down) is the mass
at or above ``true - 16`` of the rounded-down distribution, and the
lower bound (competitors rounded down strictly beating the true key
rounded up) is the mass at or above ``true + 17``, plus the true key
itself; a single tail sum serves both.  Each byte's histogram covers
only its occupied bins ``[min, max]`` (an offset tracks where it
starts), so every ``np.convolve`` runs over occupied bins only.

Numerics: the bounds equal those of the two-convolution construction
with full-width histograms exactly whenever the upper bound is below 53
bits — every tail bin and tail sum is then an integer below 2**53,
computed exactly in any summation order, so every ``recovered``
(upper bound <= 8 bits) decision is unchanged.  Above 53 bits the
convolutions' rounding depends on array lengths, and the bounds agree
to within 1 ulp of the log2 value.  ``tests/test_key_rank.py`` pins
both against a frozen copy of the two-convolution construction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import AttackError


def scores_from_correlations(peak_correlations: np.ndarray, n_traces: int) -> np.ndarray:
    """Convert per-(byte, guess) peak |correlations| to additive
    scores via the Fisher z-transform.

    ``z = atanh(rho) * sqrt(n - 3)`` is monotone in the correlation and
    approximately normal under the null, so summing byte scores ranks
    full keys sensibly.  Shape in = shape out = ``(16, 256)``.
    """
    rho = np.asarray(peak_correlations, dtype=np.float64)
    if rho.ndim != 2 or rho.shape[1] != 256:
        raise AttackError(f"peak correlations must be (16, 256), got {rho.shape}")
    if n_traces < 4:
        raise AttackError("need at least 4 traces for Fisher scoring")
    clipped = np.clip(np.abs(rho), 0.0, 0.9999)
    return np.arctanh(clipped) * np.sqrt(n_traces - 3)


def key_rank_bounds(
    scores: np.ndarray,
    true_key_bytes,
    n_bins: int = 1024,
) -> Tuple[float, float]:
    """Histogram-convolution rank bounds.

    Parameters
    ----------
    scores:
        ``(16, 256)`` additive per-byte guess scores (higher = more
        likely); every score must be finite.
    true_key_bytes:
        The 16 true (last-round) key bytes to rank, each in 0..255.
    n_bins:
        Histogram resolution (at least 2); the bound gap shrinks as it
        grows.

    Returns
    -------
    (float, float)
        ``(log2 lower bound, log2 upper bound)`` of the key rank.  A
        fully recovered key gives ``lower = 0``.

    Raises
    ------
    AttackError
        On a bad shape, a key byte outside 0..255, a non-finite score
        or ``n_bins < 2``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    true = np.asarray(true_key_bytes, dtype=np.intp)
    if scores.shape != (16, 256):
        raise AttackError(f"scores must be (16, 256), got {scores.shape}")
    if true.shape != (16,):
        raise AttackError("true_key_bytes must be 16 bytes")
    if np.any((true < 0) | (true > 255)):
        raise AttackError(f"true key bytes must lie in 0..255, got {true.tolist()}")
    if not np.all(np.isfinite(scores)):
        raise AttackError("scores must be finite")
    if n_bins < 2:
        raise AttackError(f"n_bins must be at least 2, got {n_bins}")

    lo = float(scores.min())
    hi = float(scores.max())
    if hi <= lo:
        # Degenerate: all guesses tie; the rank is the full key space.
        return (0.0, 128.0)
    width = (hi - lo) / (n_bins - 1)
    bins = np.clip(np.floor((scores - lo) / width).astype(np.int64), 0, n_bins - 1)
    true_bin = int(bins[np.arange(16), true].sum())

    # Direct convolution over each byte's occupied bins only: every
    # output bin is a dot product of non-negative terms, so its
    # floating-point error is relative to its own magnitude.  (FFT
    # convolution is unusable here: its error scales with the
    # distribution's peak, ~2^128, and obliterates the tail mass that
    # defines small ranks.)
    offset = 0
    dist = np.ones(1)
    for row in bins:
        low = int(row.min())
        dist = np.convolve(dist, np.bincount(row - low).astype(np.float64))
        offset += low
    tail = np.cumsum(dist[::-1])[::-1]  # tail[i]: mass at bins >= offset + i

    def mass_at_or_above(b: int) -> float:
        i = b - offset
        if i >= tail.shape[0]:
            return 0.0
        return float(tail[max(i, 0)])

    # Directional rounding (the Glowacz et al. construction): for the
    # upper bound every competitor is rounded up a bin (16 bins over the
    # key) against the true key rounded down; for the lower bound
    # competitors rounded down must strictly beat the true key rounded
    # up, and the true key itself always counts (rank >= 1).
    upper_mass = mass_at_or_above(true_bin - 16)
    lower_mass = mass_at_or_above(true_bin + 17) + 1.0

    upper = float(np.log2(max(upper_mass, 1.0)))
    lower = float(np.log2(max(lower_mass, 1.0)))
    return (min(lower, upper), upper)
