"""Tests for key-rank estimation (histogram convolution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.key_rank import key_rank_bounds, scores_from_correlations
from repro.errors import AttackError


def _scores_with_true_ranks(per_byte_rank, rng=None, spread=1.0):
    """Scores where the true byte (index 0 everywhere) has a known
    per-byte rank."""
    rng = rng or np.random.default_rng(0)
    scores = rng.normal(0.0, spread, (16, 256))
    true = np.zeros(16, dtype=np.intp)
    for j in range(16):
        order = np.sort(scores[j])[::-1]
        # A rank-0 byte gets a realistic margin above the runner-up (as
        # a converged CPA would produce), not an epsilon tie.
        scores[j, 0] = order[per_byte_rank[j]] + (
            0.5 * spread if per_byte_rank[j] == 0 else 0.0
        )
    return scores, true


class TestScores:
    def test_shape_preserved(self):
        rho = np.random.default_rng(0).uniform(0, 0.1, (16, 256))
        z = scores_from_correlations(rho, 1000)
        assert z.shape == (16, 256)

    def test_monotone_in_rho(self):
        rho = np.zeros((16, 256))
        rho[0, 0], rho[0, 1] = 0.02, 0.05
        z = scores_from_correlations(rho, 1000)
        assert z[0, 1] > z[0, 0]

    def test_scales_with_trace_count(self):
        rho = np.full((16, 256), 0.05)
        z1 = scores_from_correlations(rho, 100)
        z2 = scores_from_correlations(rho, 10_000)
        assert np.all(z2 > z1)

    def test_negative_rho_uses_magnitude(self):
        rho = np.zeros((16, 256))
        rho[0, 0] = -0.08
        z = scores_from_correlations(rho, 500)
        assert z[0, 0] > 0

    def test_too_few_traces_rejected(self):
        with pytest.raises(AttackError):
            scores_from_correlations(np.zeros((16, 256)), 3)

    def test_bad_shape_rejected(self):
        with pytest.raises(AttackError):
            scores_from_correlations(np.zeros((16, 99)), 100)


class TestRankBounds:
    def test_recovered_key_rank_one(self):
        scores, true = _scores_with_true_ranks([0] * 16)
        lo, hi = key_rank_bounds(scores, true)
        assert lo == 0.0
        assert hi < 12  # tight upper bound

    def test_no_information_full_space(self):
        lo, hi = key_rank_bounds(np.ones((16, 256)), np.zeros(16, dtype=np.intp))
        assert (lo, hi) == (0.0, 128.0)

    def test_bounds_ordered(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(0, 1, (16, 256))
        lo, hi = key_rank_bounds(scores, rng.integers(0, 256, 16))
        assert lo <= hi

    def test_partial_recovery_in_plausible_range(self):
        # 12 bytes at rank 0, 4 bytes at rank ~19: the true rank is
        # bounded by 20^4 ~ 2^17.3 times small polynomial factors.
        scores, true = _scores_with_true_ranks([0] * 12 + [19] * 4)
        lo, hi = key_rank_bounds(scores, true)
        assert 8 < hi < 40
        assert lo <= hi

    def test_worse_bytes_raise_rank(self):
        easy, true = _scores_with_true_ranks([0] * 14 + [5] * 2)
        hard, _ = _scores_with_true_ranks([0] * 14 + [120] * 2)
        _, hi_easy = key_rank_bounds(easy, true)
        _, hi_hard = key_rank_bounds(hard, true)
        assert hi_hard > hi_easy

    def test_more_bins_tighten_bounds(self):
        scores, true = _scores_with_true_ranks([3] * 16)
        lo1, hi1 = key_rank_bounds(scores, true, n_bins=256)
        lo2, hi2 = key_rank_bounds(scores, true, n_bins=4096)
        assert (hi2 - lo2) <= (hi1 - lo1) + 1e-9

    def test_two_byte_exhaustive_ground_truth(self):
        """With only 2 informative bytes (the rest fully recovered),
        the rank can be enumerated exactly; the bounds must bracket it."""
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 1.0, (16, 256))
        true = rng.integers(0, 256, 16)
        for j in range(14):
            scores[j, true[j]] = scores[j].max() + 10.0  # certain bytes
        # Exhaustive rank over the two free bytes:
        t14, t15 = scores[14, true[14]], scores[15, true[15]]
        total = t14 + t15
        grid = scores[14][:, None] + scores[15][None, :]
        exact_rank = int(np.count_nonzero(grid > total))
        lo, hi = key_rank_bounds(scores, true, n_bins=4096)
        exact_log2 = np.log2(max(exact_rank, 1))
        assert lo - 0.8 <= exact_log2 <= hi + 0.8

    def test_bad_shapes_rejected(self):
        with pytest.raises(AttackError):
            key_rank_bounds(np.zeros((16, 99)), np.zeros(16, dtype=np.intp))
        with pytest.raises(AttackError):
            key_rank_bounds(np.zeros((16, 256)), np.zeros(15, dtype=np.intp))

    def test_negative_key_byte_rejected(self):
        true = np.zeros(16, dtype=np.intp)
        true[3] = -1
        with pytest.raises(AttackError, match="0..255"):
            key_rank_bounds(np.random.default_rng(0).normal(size=(16, 256)), true)

    def test_key_byte_past_255_rejected(self):
        true = np.zeros(16, dtype=np.intp)
        true[15] = 256
        with pytest.raises(AttackError, match="0..255"):
            key_rank_bounds(np.random.default_rng(0).normal(size=(16, 256)), true)

    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            scores = np.random.default_rng(0).normal(size=(16, 256))
            scores[7, 100] = bad
            with pytest.raises(AttackError, match="finite"):
                key_rank_bounds(scores, np.zeros(16, dtype=np.intp))

    def test_single_bin_rejected(self):
        scores = np.random.default_rng(0).normal(size=(16, 256))
        with pytest.raises(AttackError, match="n_bins"):
            key_rank_bounds(scores, np.zeros(16, dtype=np.intp), n_bins=1)


# ----------------------------------------------------------------------
# Differential contract: one trimmed convolution vs the two-convolution
# construction it replaced.
# ----------------------------------------------------------------------


def _two_convolution_bounds(scores, true_key_bytes, n_bins=1024):
    """Frozen oracle: the rank-bound estimator as it was before the
    one-convolution rewrite (full-width histograms, a second
    convolution for the rounded-up bins), kept verbatim."""
    scores = np.asarray(scores, dtype=np.float64)
    true = np.asarray(true_key_bytes, dtype=np.intp)
    if scores.shape != (16, 256):
        raise AttackError(f"scores must be (16, 256), got {scores.shape}")
    if true.shape != (16,):
        raise AttackError("true_key_bytes must be 16 bytes")

    lo = float(scores.min())
    hi = float(scores.max())
    if hi <= lo:
        # Degenerate: all guesses tie; the rank is the full key space.
        return (0.0, 128.0)
    width = (hi - lo) / (n_bins - 1)

    # Directional rounding (the Glowacz et al. construction): for the
    # *upper* bound every competitor's score is rounded up while the
    # true key's is rounded down, guaranteeing an overcount; vice versa
    # for the lower bound.
    bins_down = np.clip(
        np.floor((scores - lo) / width).astype(np.int64), 0, n_bins - 1
    )
    bins_up = bins_down + 1
    true_down = int(bins_down[np.arange(16), true].sum())
    true_up = int(bins_up[np.arange(16), true].sum())

    def convolved(bins: np.ndarray) -> np.ndarray:
        # Direct convolution: each output bin is a dot product of
        # non-negative terms, so its floating-point error is relative
        # to its own magnitude.  (FFT convolution is unusable here: its
        # error scales with the distribution's peak, ~2^128, and
        # obliterates the tail mass that defines small ranks.)
        size = n_bins + 1
        dist = np.zeros(size)
        np.add.at(dist, bins[0], 1.0)
        for j in range(1, 16):
            h = np.zeros(size)
            np.add.at(h, bins[j], 1.0)
            dist = np.convolve(dist, h)
        return dist

    def mass_at_or_above(dist: np.ndarray, b: int) -> float:
        cum_from_top = np.cumsum(dist[::-1])[::-1]
        if b <= 0:
            return float(cum_from_top[0])
        if b >= dist.shape[0]:
            return 0.0
        return float(cum_from_top[b])

    upper_mass = mass_at_or_above(convolved(bins_up), true_down)
    # Lower bound: competitors rounded down must STRICTLY beat the true
    # key rounded up; the true key itself always counts (rank >= 1).
    lower_mass = mass_at_or_above(convolved(bins_down), true_up + 1) + 1.0

    upper = float(np.log2(max(upper_mass, 1.0)))
    lower = float(np.log2(max(lower_mass, 1.0)))
    return (min(lower, upper), upper)


@st.composite
def rank_cases(draw):
    """Score matrices across the regimes the estimator meets: spread
    scores, heavy ties (few distinct values), rows where every guess
    ties, and true keys at byte rank 0 (small full-key ranks)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scores = rng.normal(0.0, 1.0, (16, 256))
    else:
        scores = rng.integers(0, draw(st.integers(2, 6)), (16, 256)).astype(float)
    for row in draw(st.sets(st.integers(0, 15), max_size=4)):
        scores[row] = scores[row, 0]
    true = rng.integers(0, 256, 16)
    n_rank0 = draw(st.one_of(st.integers(12, 16), st.integers(0, 16)))
    margin = draw(st.sampled_from([0.0, 0.5, 3.0]))
    for row in rng.permutation(16)[:n_rank0]:
        scores[row, true[row]] = scores[row].max() + margin
    return scores, true


def assert_matches_two_convolution_oracle(scores, true, n_bins):
    got = key_rank_bounds(scores, true, n_bins=n_bins)
    want = _two_convolution_bounds(scores, true, n_bins=n_bins)
    if want[1] < 53:
        # Tail masses below 2^53 are exact integers on both paths.
        assert got == want
    else:
        for g, w in zip(got, want):
            assert abs(g - w) <= np.spacing(w)


class TestOneConvolutionContract:
    @given(rank_cases(), st.sampled_from([2, 256, 1024]))
    @settings(max_examples=80, deadline=None)
    def test_matches_two_convolution_oracle(self, case, n_bins):
        assert_matches_two_convolution_oracle(*case, n_bins)

    @given(rank_cases())
    @settings(max_examples=4, deadline=None)
    def test_matches_two_convolution_oracle_at_4096_bins(self, case):
        # Separate and few: the oracle's full-width convolutions take
        # about a second per case at this resolution.
        assert_matches_two_convolution_oracle(*case, 4096)

    def test_small_ranks_bit_identical(self):
        # Converged attacks (the regime `recovered` is decided in): a
        # few bytes off rank 0, ranks well below 2^53.
        for per_byte in ([0] * 16, [0] * 12 + [19] * 4, [0] * 14 + [120] * 2):
            scores, true = _scores_with_true_ranks(per_byte)
            for n_bins in (256, 1024):
                got = key_rank_bounds(scores, true, n_bins=n_bins)
                want = _two_convolution_bounds(scores, true, n_bins=n_bins)
                assert want[1] < 53
                assert got == want
