"""The in-tree PDN low-pass is bit-identical to ``scipy.signal.lfilter``.

scipy is the test-only oracle here: every comparison is on the raw bits
(``view(np.uint64)``), signed zeros included, not within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal

from repro.kernels.basis import step_response_basis, unit_boxcars
from repro.pdn.coupling import CouplingModel
from repro.pdn.lowpass import lowpass, steady_state

poles = st.one_of(
    st.sampled_from([0.0, 0.5, float(np.nextafter(1.0, 0.0))]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
samples = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=True),
)
signals = hnp.arrays(
    np.float64,
    st.one_of(
        hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=64),
        hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=12),
    ),
    elements=samples,
)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _design(pole: float):
    return [1.0 - pole], [1.0, -pole]


@settings(max_examples=300)
@given(x=signals, pole=poles)
def test_zero_state_matches_lfilter(x, pole):
    b, a = _design(pole)
    np.testing.assert_array_equal(
        _bits(lowpass(x, pole)), _bits(signal.lfilter(b, a, x, axis=-1))
    )


@settings(max_examples=300)
@given(x=signals, pole=poles)
def test_steady_state_start_matches_lfilter(x, pole):
    b, a = _design(pole)
    zi = signal.lfilter_zi(b, a) * x[..., :1]
    expected, _ = signal.lfilter(b, a, x, axis=-1, zi=zi)
    np.testing.assert_array_equal(_bits(lowpass(x, pole, zi=zi)), _bits(expected))


@settings(max_examples=500)
@given(pole=poles)
def test_closed_form_zi_matches_lfilter_zi(pole):
    zi = signal.lfilter_zi(*_design(pole))
    assert zi.shape == (1,)
    assert _bits(steady_state(pole)) == _bits(zi[0])


def test_output_layout():
    x = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    y = lowpass(x, 0.25)
    assert y.shape == x.shape and y.dtype == np.float64
    assert y.flags.c_contiguous
    assert lowpass(np.arange(5), 0.5).dtype == np.float64


def test_coupling_filter_matches_lfilter(basys3_device):
    coupling = CouplingModel(basys3_device)
    rng = np.random.default_rng(5)
    for dt in (1 / 300e6, 1 / 50e6):
        currents = rng.normal(1e-2, 1e-3, size=(6, 195))
        b, a = _design(float(np.exp(-dt / coupling.constants.pdn_tau)))
        expected, _ = signal.lfilter(
            b, a, currents, axis=-1, zi=signal.lfilter_zi(b, a) * currents[..., :1]
        )
        np.testing.assert_array_equal(
            _bits(coupling.filter_currents(currents, dt)), _bits(expected)
        )
        np.testing.assert_array_equal(
            _bits(coupling.filter_currents(currents[0], dt)), _bits(expected[0])
        )


@pytest.mark.parametrize("spc, n_samples, lead_in, pole", [
    (18, 195, 1, 0.69),
    (3, 40, 0, 0.0),
    (1, 1, 0, 0.9),
])
def test_step_response_basis_matches_lfilter(spc, n_samples, lead_in, pole):
    basis = step_response_basis(11, spc, n_samples, lead_in, pole)
    expected = signal.lfilter(
        *_design(pole), unit_boxcars(11, spc, n_samples, lead_in), axis=-1
    )
    np.testing.assert_array_equal(_bits(basis.matrix), _bits(expected))
