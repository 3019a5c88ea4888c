import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_level_liouvillian
from stabsim.effective import (
    ThreeLevelParams, approx_fidelity, exact_fidelity, experiment_estimate,
)
from stabsim.lindblad import evolve, steady_state

rate = st.floats(1e-2, 1e2)


def oracle_fidelity(p: ThreeLevelParams) -> float:
    """Target population of the numerically solved stationary state."""
    ss = steady_state(three_level_liouvillian(p), tol=1e-9)
    return float(np.real(ss.rho[2, 2]))


class TestExactFidelity:
    def test_lossless_limit(self):
        for omega in (0.1, 1.0, 10.0):
            p = ThreeLevelParams(omega, 0.0, 0.0, 2.0)
            assert exact_fidelity(p) == pytest.approx(1.0, abs=1e-12)

    def test_strong_pump_limit(self):
        g1, gphi, gs = 0.05, 0.03, 2.0
        strong = exact_fidelity(ThreeLevelParams(1e5, g1, gphi, gs))
        assert strong == pytest.approx(gs / (2 * g1 + 2 * gphi + gs), rel=1e-6)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            exact_fidelity(ThreeLevelParams(0.0, 0.0, 0.0, 1.0))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ThreeLevelParams(1.0, -0.1, 0.0, 1.0)

    @given(rate, rate, rate, rate)
    @settings(max_examples=60, deadline=None)
    def test_matches_lindblad_oracle(self, omega, g1, gphi, gs):
        p = ThreeLevelParams(omega, g1, gphi, gs)
        assert exact_fidelity(p) == pytest.approx(oracle_fidelity(p),
                                                  abs=1e-8)

    def test_monotone_in_rates(self):
        base = ThreeLevelParams(0.53, 1 / 27, 1 / 18, 1.5)
        f0 = exact_fidelity(base)
        import dataclasses
        assert exact_fidelity(dataclasses.replace(base, gamma_s=2.0)) > f0
        assert exact_fidelity(dataclasses.replace(base, gamma1=0.08)) < f0
        assert exact_fidelity(dataclasses.replace(base, gamma_phi=0.1)) < f0


class TestApproxFidelity:
    def test_lossless(self):
        assert approx_fidelity(0.0, 0.0, 1.0) == 1.0

    def test_reference_point(self):
        val = approx_fidelity(1 / 27, 1 / 18, 2.0)
        assert val == pytest.approx(0.91525, abs=1e-4)

    def test_requires_positive_gamma_s(self):
        with pytest.raises(ValueError, match="gamma_s"):
            approx_fidelity(0.1, 0.1, 0.0)

    def test_agrees_with_exact_in_hierarchy_regime(self):
        # gamma_s >> 2*pi*omega_p >> max(gamma1, gamma_phi) by >= 10x.  Note
        # the closed form carries a gamma1*gamma_s^2 term, so agreement also
        # needs gamma1*gamma_s << (2*pi*omega_p)^2; relaxation must sit well
        # below the pump for the plain rate picture to apply.
        for g1, gphi in [(1e-4, 1e-2), (2e-5, 5e-3)]:
            omega_ang = 10.0 * max(g1, gphi)
            gs = 10.0 * omega_ang
            assert g1 * gs <= 0.01 * omega_ang ** 2
            p = ThreeLevelParams(omega_ang / (2 * math.pi), g1, gphi, gs)
            assert abs(exact_fidelity(p)
                       - approx_fidelity(g1, gphi, gs)) < 0.01

    def test_approx_approaches_exact_along_ladder(self):
        # both hierarchy ratios grow along the ladder (pump over decoherence
        # faster than transfer over pump), and the gap closes monotonically
        g1 = gphi = 1e-3
        gaps = []
        for f in (3.0, 6.0, 12.0, 24.0, 48.0):
            omega_ang = f ** 2 * g1
            gs = f ** 3 * g1
            p = ThreeLevelParams(omega_ang / (2 * math.pi), g1, gphi, gs)
            gaps.append(abs(exact_fidelity(p)
                            - approx_fidelity(g1, gphi, gs)))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.03 and gaps[-1] < gaps[0] / 8


class TestExperimentEstimate:
    def test_reference_value(self):
        assert experiment_estimate(0.9, (27.0, 27.0), 18.0) == pytest.approx(
            0.9167, abs=5e-4)

    def test_ideal_limit(self):
        assert experiment_estimate(0.9, (math.inf, math.inf), math.inf) == 1.0

    def test_dephasing_dominated_boundary(self):
        assert experiment_estimate(18.0, (math.inf,), 18.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            experiment_estimate(0.0, (27.0,), 18.0)


def three_level_traces(p: ThreeLevelParams, times) -> dict:
    """Population traces P_gg / P_S / P_T of the model from the ground state."""
    basis = dict(zip(("P_gg", "P_S", "P_T"), np.eye(3)))
    return evolve(three_level_liouvillian(p), np.diag([1.0, 0.0, 0.0]), times,
                  observables=basis).observables


class TestSimulateAndFit:
    def test_exceptional_point_matches_matrix_exponential(self):
        # the pump/decay exceptional point, omega_p = gamma1/(8 pi): L is
        # defective there, so an eigenbasis of L loses digits
        p = ThreeLevelParams(1 / (8 * math.pi), 1.0, 0.0, 0.0)
        t = np.linspace(0.0, 10.0, 101)
        traces = three_level_traces(p, t)
        L = three_level_liouvillian(p).matrix.toarray()
        rho0 = np.zeros(9, dtype=complex)
        rho0[0] = 1.0
        ref = np.array([np.real(scipy.linalg.expm(L * tk) @ rho0)[[0, 4, 8]]
                        for tk in t])
        got = np.stack([traces["P_gg"], traces["P_S"], traces["P_T"]], axis=1)
        npt.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_population_conservation(self):
        p = ThreeLevelParams(0.6, 0.04, 0.02, 1.2)
        t = np.linspace(0.0, 8.0, 81)
        traces = three_level_traces(p, t)
        total = traces["P_gg"] + traces["P_S"] + traces["P_T"]
        npt.assert_allclose(total, 1.0, atol=1e-10)
