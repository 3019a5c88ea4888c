import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import directionality_ratio, photon_number, stark_shift
from stabsim.rates import drive_amplitude, golden_rule_rate

TWO_PI = 2 * math.pi


class TestPhotonNumber:
    def test_resonant_matched_amplitude(self):
        # on resonance with eps = kappa/2 the cavity holds one photon
        assert photon_number(0.55, 0.0, 1.1) == pytest.approx(1.0)

    def test_amplitude_inversion(self):
        # required drive for 0.74 photons at the two-qubit design detuning
        eps = drive_amplitude(0.74, 10.0, 1.1)
        assert eps == pytest.approx(math.sqrt(0.74 * (10.0 ** 2 + 0.55 ** 2)),
                                    rel=1e-12)
        assert eps == pytest.approx(8.6153, abs=5e-4)
        assert photon_number(eps, 10.0, 1.1) == pytest.approx(0.74, rel=1e-12)

    def test_scale_invariance(self):
        # same value in linear or angular units
        lin = photon_number(8.0, 10.0, 1.1)
        ang = photon_number(TWO_PI * 8.0, TWO_PI * 10.0, TWO_PI * 1.1)
        assert lin == pytest.approx(ang, rel=1e-12)

    def test_kappa_guard(self):
        with pytest.raises(ValueError, match="kappa"):
            photon_number(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="kappa"):
            drive_amplitude(1.0, 1.0, -1.0)

    @given(st.floats(0.1, 50.0), st.floats(0.1, 50.0), st.floats(0.1, 5.0),
           st.floats(1.01, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity(self, eps, delta, kappa, factor):
        base = photon_number(eps, delta, kappa)
        assert photon_number(eps * factor, delta, kappa) > base
        assert photon_number(eps, delta * factor, kappa) < base


class TestStarkShift:
    def test_empty_cavity(self):
        assert stark_shift(0.0, -0.75) == 0.0

    def test_design_point(self):
        assert stark_shift(0.74, -0.75) == pytest.approx(-1.11)


class TestGoldenRule:
    def test_on_resonance_closed_form(self):
        s = 1 / math.sqrt(2)
        est = golden_rule_rate(-0.90, s, s, 0.74, 0.87, 10.0, 10.0)
        expected = 16 * 0.74 * (TWO_PI * 0.90 * 0.5) ** 2 / (TWO_PI * 0.87)
        assert est.forward == pytest.approx(expected, rel=1e-12)

    def test_ratio_matches_directionality_identity(self):
        # forward/reverse at the optimal detuning is an algebraic identity
        s = 1 / math.sqrt(2)
        for gap, kappa in [(10.0, 1.1), (10.0, 0.87), (3.0, 2.0)]:
            est = golden_rule_rate(-0.90, s, s, 0.5, kappa, gap, gap)
            assert est.ratio == pytest.approx(directionality_ratio(gap, kappa),
                                              rel=1e-12)

    def test_zero_photons(self):
        est = golden_rule_rate(-0.90, 0.7, 0.7, 0.0, 0.87, 10.0, 10.0)
        assert est.forward == 0.0 and est.reverse == 0.0

    def test_optimal_detuning_is_gap(self):
        est = golden_rule_rate(-0.90, 0.7, 0.7, 0.5, 0.87, 10.0, 4.0)
        assert est.optimal_detuning == 10.0

    @given(st.floats(0.1, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_lorentzian_maximum_at_resonance(self, detuning):
        s = 1 / math.sqrt(2)
        peak = golden_rule_rate(-0.90, s, s, 0.74, 0.87, 10.0, 10.0)
        other = golden_rule_rate(-0.90, s, s, 0.74, 0.87, 10.0, detuning)
        assert other.forward <= peak.forward * (1 + 1e-12)

    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_forward_dominates_for_red_detuning(self, gap, detuning):
        est = golden_rule_rate(-0.90, 0.7, 0.7, 0.5, 1.0, gap, detuning)
        assert est.forward >= est.reverse - 1e-15


class TestDirectionality:
    def test_no_gap_no_direction(self):
        assert directionality_ratio(0.0, 1.1) == 1.0

    def test_gap_equals_kappa(self):
        assert directionality_ratio(2.0, 2.0) == pytest.approx(17.0)

    def test_design_point_strongly_directional(self):
        val = directionality_ratio(10.0, 1.1)
        assert val == pytest.approx(16 * (10.0 / 1.1) ** 2 + 1, rel=1e-12)
        assert val > 1e3

    def test_kappa_guard(self):
        with pytest.raises(ValueError, match="kappa"):
            directionality_ratio(10.0, 0.0)


class TestAgainstFullSimulation:
    """Engineered-rate formulas vs the full master equation.

    The golden-rule expression assumes the scattering is slow compared to
    the resonator decay; at forward <= kappa/10 the full-simulation transfer
    rate must agree within a factor of two.
    """

    @pytest.mark.slow
    def test_validity_regime_factor_two(self):
        from stabsim.device import bundled_scenario, ResonatorDrive
        from stabsim.scenarios import measure_transfer_rate

        cfg = bundled_scenario("bell_single_channel")
        res = list(cfg.resonators)
        res[1] = type(res[1])("R2", res[1].omega_r, 4.0, -0.45, None)
        n_bar = 0.15
        cfg = cfg.replace(
            resonators=tuple(res),
            raman=(ResonatorDrive(detuning=10.0, n_bar=0.0),
                   ResonatorDrive(detuning=10.0, n_bar=n_bar)))
        s = 1 / math.sqrt(2)
        est = golden_rule_rate(-0.45, s, s, n_bar, 4.0, 10.0, 10.0)
        assert est.forward <= (2 * math.pi * 4.0) / 10.0  # inside validity
        measured = measure_transfer_rate(cfg, source="S", window=8.0)
        assert est.forward / 2 <= measured <= est.forward * 2
