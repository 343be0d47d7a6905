"""Tests for the LeakyDSP sensor: structure, functional model, readout
behaviour and the tap interface."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONSTANTS
from repro.core.leaky_dsp import LeakyDSP
from repro.errors import ConfigurationError
from repro.fpga.device import SiteType, zu3eg
from repro.fpga.placement import Placer
from repro.timing.sampling import ClockSpec


@pytest.fixture(scope="module")
def sensor(basys3_device):
    return LeakyDSP(device=basys3_device, seed=1)


class TestConstruction:
    def test_default_three_blocks(self, sensor):
        assert sensor.n_blocks == 3
        assert sensor.output_width == 48

    def test_chain_delay_scales_with_blocks(self, basys3_device):
        d1 = LeakyDSP(device=basys3_device, n_blocks=1, seed=0).chain_delay
        d3 = LeakyDSP(device=basys3_device, n_blocks=3, seed=0).chain_delay
        assert d3 > 2.9 * d1

    def test_zero_blocks_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            LeakyDSP(device=basys3_device, n_blocks=0)

    def test_too_many_blocks_rejected(self, basys3_device):
        with pytest.raises(ConfigurationError):
            LeakyDSP(device=basys3_device, n_blocks=basys3_device.num_dsps + 1)

    def test_capture_offset_within_half_period(self, sensor):
        margin = sensor.capture_offset - sensor.chain_delay
        assert abs(margin) <= sensor.clock.period / 2 + 1e-12

    def test_same_seed_same_silicon(self, basys3_device):
        a = LeakyDSP(device=basys3_device, seed=5)
        b = LeakyDSP(device=basys3_device, seed=5)
        np.testing.assert_array_equal(a._bit_offsets, b._bit_offsets)

    def test_different_seed_different_silicon(self, basys3_device):
        a = LeakyDSP(device=basys3_device, seed=5)
        b = LeakyDSP(device=basys3_device, seed=6)
        assert not np.array_equal(a._bit_offsets, b._bit_offsets)


class TestNetlistStructure:
    def test_block_count(self, sensor):
        nl = sensor.netlist()
        assert len(nl.cells_of_type("DSP48E1")) == 3

    def test_only_last_block_registered(self, sensor):
        dsps = sorted(sensor.netlist().cells_of_type("DSP48E1"), key=lambda c: c.name)
        assert [c.primitive.attributes["PREG"] for c in dsps] == [0, 0, 1]

    def test_two_idelays(self, sensor):
        assert len(sensor.netlist().cells_of_type("IDELAYE2")) == 2

    def test_no_fabric_logic(self, sensor):
        counts = sensor.netlist().count_by_type()
        assert "LUT" not in counts
        assert "FDRE" not in counts
        assert "CARRY4" not in counts

    def test_no_combinational_loop(self, sensor):
        assert sensor.netlist().combinational_loops() == []

    def test_cascade_connectivity(self, sensor):
        g = sensor.netlist().graph()
        dsps = sorted(c.name for c in sensor.netlist().cells_of_type("DSP48E1"))
        assert g.has_edge(dsps[0], dsps[1])
        assert g.has_edge(dsps[1], dsps[2])

    def test_ultrascale_variant_uses_e2(self, zu3eg_device):
        sensor = LeakyDSP(device=zu3eg_device, seed=0)
        nl = sensor.netlist()
        assert len(nl.cells_of_type("DSP48E2")) == 3
        assert len(nl.cells_of_type("IDELAYE3")) == 2


class TestFunctionalModel:
    def test_identity_function(self, sensor):
        assert sensor.functional_check()

    def test_identity_on_ultrascale(self, zu3eg_device):
        assert LeakyDSP(device=zu3eg_device, seed=0).functional_check()


class TestReadoutBehaviour:
    def test_probabilities_shape(self, sensor):
        p = sensor.bit_probabilities(np.array([1.0, 0.98]))
        assert p.shape == (2, 48)
        assert np.all((0 <= p) & (p <= 1))

    def test_readout_monotone_in_voltage(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(20, 0)  # roughly centered
        v = np.linspace(0.9, 1.02, 40)
        r = s.expected_readout(v)
        assert np.all(np.diff(r) >= -1e-9)

    def test_droop_lowers_readout(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(20, 0)
        hi, lo = s.expected_readout(np.array([1.0, 0.97]))
        assert hi > lo + 3

    def test_sensitivity_positive_when_centred(self, basys3_device):
        # Readout rises with supply voltage (droop -> fewer settled
        # bits), which is why readout correlates negatively with
        # victim activity in Fig. 3.
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(20, 0)
        assert s.sensitivity() > 0

    def test_phase_margin_moves_with_taps(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(0, 0)
        m0 = s.phase_margin
        s.set_taps(0, 10)
        assert s.phase_margin > m0
        s.set_taps(10, 0)
        assert s.phase_margin < m0

    def test_tap_plan_monotone_phase(self, sensor):
        plan = sensor.tap_plan()
        phases = []
        for a, c in plan:
            phases.append(c * sensor._idelay_clk.tap_delay - a * sensor._idelay_a.tap_delay)
        assert all(b >= a for a, b in zip(phases, phases[1:]))

    def test_tap_plan_respects_max_steps(self, sensor):
        assert len(sensor.tap_plan(max_steps=16)) <= 17

    def test_taps_property_roundtrip(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=2)
        s.set_taps(3, 7)
        assert s.taps == (3, 7)


class TestPlacementIntegration:
    def test_place_assigns_dsp_sites(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=3)
        placement = s.place(Placer(basys3_device))
        for cell in s.netlist().cells_of_type("DSP48E1"):
            assert placement.site_of(cell.name).site_type is SiteType.DSP
        assert s.position is not None

    def test_unplaced_position_raises(self, basys3_device):
        s = LeakyDSP(device=basys3_device, seed=3)
        with pytest.raises(ConfigurationError):
            s.require_position()


class TestBitOffsets:
    """The settle-time ramp uses the in-tree Cephes ``ndtri`` port
    (``repro.core._ndtri``, which keeps ``scipy.special`` and
    ``scipy.stats`` out of process start); it must equal the
    ``scipy.stats.norm.ppf`` ramp it replaced bit for bit."""

    def test_build_bit_offsets_unchanged(self, sensor):
        from scipy import stats

        from repro.config import make_rng
        from repro.core.leaky_dsp import PROCESS_JITTER_FRACTION

        n = sensor.output_width
        c = sensor.constants
        sigma = c.dsp_bit_spread * c.dsp_block_delay
        for seed in (0, 1, 7):
            ramp = sigma * stats.norm.ppf((np.arange(n) + 0.5) / n)
            jitter = make_rng(seed).normal(
                0.0, PROCESS_JITTER_FRACTION * sigma, size=n
            )
            got = sensor._build_bit_offsets(make_rng(seed))
            assert np.array_equal(got, ramp + jitter)

    def test_ndtri_matches_norm_ppf_on_quantile_grids(self):
        from scipy import stats
        from scipy.special import ndtri

        for n in range(18, 97):
            q = (np.arange(n) + 0.5) / n
            assert np.array_equal(ndtri(q), stats.norm.ppf(q)), n
