"""The in-tree Cephes ``ndtri`` port is bit-identical to
``scipy.special.ndtri`` (the test-only oracle), compared on the raw bits
with ``view(np.uint64)``."""

import math

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri

from repro.core._ndtri import ndtri

#: exp(-2) and exp(-32): the central/tail and the x < 8 / x >= 8 branch
#: points (x = sqrt(-2 log y)).
EXP_M2 = math.exp(-2.0)
EXP_M32 = math.exp(-32.0)


def _assert_bit_identical(points: np.ndarray) -> None:
    got = np.array([ndtri(p) for p in points.tolist()])
    expected = scipy_ndtri(points)
    mismatched = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert mismatched.size == 0, points[mismatched[:5]]


def test_quantile_grids():
    for n in range(1, 400):
        _assert_bit_identical((np.arange(n) + 0.5) / n)


def test_random_points_cover_every_branch():
    rng = np.random.default_rng(20250)
    n = 25_000
    central = rng.uniform(EXP_M2, 1.0 - EXP_M2, n)
    near_tail = np.exp(-rng.uniform(2.0, 32.0, n))  # x < 8
    far_tail = np.exp(-rng.uniform(32.0, 744.0, n))  # x >= 8
    upper = 1.0 - np.exp(-rng.uniform(0.0, 36.0, n))  # 1 - e^-2 reflection
    edges = np.concatenate([
        np.nextafter(EXP_M2, [0.0, 1.0]),
        np.nextafter(1.0 - EXP_M2, [0.0, 1.0]),
        np.nextafter(EXP_M32, [0.0, 1.0]),
        [EXP_M2, 1.0 - EXP_M2, EXP_M32, 0.5, 5e-324, 2.2250738585072014e-308],
        np.nextafter([0.0, 1.0], 0.5),
    ])
    points = np.concatenate([central, near_tail, far_tail, upper, edges])
    tail = np.minimum(points, 1.0 - points)
    x = np.sqrt(-2.0 * np.log(tail[tail <= EXP_M2]))
    assert (x < 8.0).sum() > 10_000 and (x >= 8.0).sum() > 10_000
    assert (points > 1.0 - EXP_M2).sum() > 10_000
    _assert_bit_identical(points)


@pytest.mark.parametrize("y, expected", [
    (0.0, -math.inf),
    (-0.0, -math.inf),
    (1.0, math.inf),
])
def test_endpoints(y, expected):
    assert ndtri(y) == expected


@pytest.mark.parametrize("y", [-1e-300, -0.5, 1.0 + 2.0**-52, 2.0, math.inf, -math.inf, math.nan])
def test_outside_the_unit_interval_is_nan(y):
    assert math.isnan(ndtri(y))
    assert math.isnan(scipy_ndtri(y))
