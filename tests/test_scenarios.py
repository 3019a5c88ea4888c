import collections
import functools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scipy_csr
from stabsim import scenarios
from stabsim.device import (
    PumpDrive, ResonatorDrive, Truncations, bundled_scenario,
)
from stabsim.hamiltonian import build_dispersive, named_qubit_state, qubit_space
from stabsim.hilbert import coherent_state, lowering_op
from stabsim.lindblad import _commutator_diagonal, build_liouvillian, evolve
from stabsim.scenarios import (
    DegenerateDataError, FitError, _probe_family, _qubit_state_labels,
    build_problem, fit_exponential, run_bell, run_spectroscopy, run_sweep, run_w, write_report,
    write_spectroscopy, write_sweep,
)


@pytest.fixture(scope="module")
def quick_bell():
    """Reduced two-qubit config: small truncations and a short window."""
    return bundled_scenario("bell").replace(
        t_final=2.0, t_step=0.1,
        truncations=Truncations(qubit_dim=2, resonator_dim=2))


class TestFitExponential:
    def test_recovers_synthetic_time_constant(self):
        t = np.linspace(0.0, 8.0, 81)
        fit = fit_exponential(t, 1.0 - np.exp(-t / 0.9))
        assert fit.tau == pytest.approx(0.9, abs=0.01)
        assert fit.asymptote == pytest.approx(1.0, abs=1e-6)

    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_exponential(np.linspace(0, 5, 20), np.full(20, 0.7))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="5 samples"):
            fit_exponential([0, 1, 2], [0.1, 0.2, 0.3])

    @given(st.floats(0.2, 3.0), st.floats(0.1, 0.9), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_rate_inversion_property(self, tau, asym, seed):
        t = np.linspace(0.0, 6 * tau, 60)
        rng = np.random.default_rng(seed)
        y = asym - asym * np.exp(-t / tau) + rng.normal(0, 1e-6, t.size)
        fit = fit_exponential(t, y)
        assert fit.rate == pytest.approx(1.0 / tau, rel=0.02)

    @pytest.mark.parametrize("seed", range(5))
    def test_reaches_least_squares_optimum(self, seed):
        # two decay times, as in a scenario's F(t), so one exponential fits
        # only approximately.  The reference is the root of the cost's
        # tau-derivative with a and b at their linear optimum:
        # b sum r_i t_i e_i = 0 (envelope theorem)
        from scipy.optimize import brentq

        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 10.0, 101)
        y = (0.93 - 0.5 * np.exp(-t / 0.6) - 0.4 * np.exp(-t / 1.5)
             + rng.normal(0, 1e-3, t.size))

        def linear_fit(tau):
            e = np.exp(-t / tau)
            (a, b), *_ = np.linalg.lstsq(
                np.column_stack([np.ones_like(t), e]), y, rcond=None)
            return a, b, e

        def d_cost(tau):
            a, b, e = linear_fit(tau)
            return b * np.sum((y - a - b * e) * t * e)

        tau = brentq(d_cost, 0.3, 3.0, xtol=1e-15, rtol=1e-15)
        a, b, e = linear_fit(tau)
        fit = fit_exponential(t, y)
        assert fit.tau == pytest.approx(tau, rel=1e-9)
        assert (fit.asymptote, fit.amplitude) == pytest.approx((a, b),
                                                               rel=1e-9)
        assert fit.residual == pytest.approx(
            np.sqrt(np.mean((y - a - b * e) ** 2)), rel=1e-9)

    def test_keeps_tau_bound(self):
        # the unbounded optimum, tau = 5e-7 us, lies below the bound
        t = np.linspace(0.0, 5e-6, 50)
        fit = fit_exponential(t, 1.0 - np.exp(-t / 5e-7))
        assert fit.tau >= 1e-6
        assert fit.tau == pytest.approx(1e-6, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["times", "values"])
    def test_non_finite_input_rejected(self, bad, where):
        data = {"times": np.linspace(0.0, 5.0, 20),
                "values": 1.0 - np.exp(-np.linspace(0.0, 5.0, 20))}
        data[where][3] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_exponential(data["times"], data["values"])

    def test_straight_line_does_not_converge(self):
        # a line is the limit tau -> infinity of a + b exp(-t/tau)
        with pytest.raises(FitError, match="did not converge"):
            fit_exponential(np.arange(10.0), np.arange(10.0))

    def test_equal_times_degenerate(self):
        # no time span: no rate, and no bound on tau in spans
        with pytest.raises(DegenerateDataError, match="equal times"):
            fit_exponential(np.full(20, 2.0), np.linspace(0.0, 1.0, 20))

    def test_slow_drift_fits(self):
        # tau = 50 time spans, a slow sweep point's nearly straight trace,
        # lies well inside the walk's bound on tau
        t = np.linspace(0.0, 10.0, 101)
        fit = fit_exponential(t, 0.3 + 0.5 * np.exp(-t / 500.0))
        assert fit.tau == pytest.approx(500.0, rel=1e-6)


class TestScenarioRuns:
    def test_bell_report_contract(self, quick_bell):
        report = run_bell(quick_bell, channels="R2")
        assert report.scenario == "bell" and report.target == "T"
        assert report.times[0] == 0.0 and np.all(np.diff(report.times) > 0)
        for key in ("P_gg", "P_ge", "P_eg", "P_ee", "P_S", "P_T", "F_target"):
            assert key in report.traces
        fid = report.traces["F_target"]
        assert ((fid >= -1e-9) & (fid <= 1 + 1e-9)).all()
        assert 0.0 <= report.steady_fidelity <= 1.0
        assert report.diagnostics["max_trace_drift"] <= 1e-8
        assert report.diagnostics["max_hermiticity_defect"] <= 1e-9
        assert report.diagnostics["min_eigenvalue"] >= -1e-7

    def test_channel_selection_zeroes_drives(self, quick_bell):
        from stabsim.scenarios import _select_channels
        single = _select_channels(quick_bell, "R2")
        assert single.raman[0].n_bar == 0.0
        assert single.raman[1].n_bar == quick_bell.raman[1].n_bar
        with pytest.raises(ValueError, match="channels"):
            _select_channels(quick_bell, "R9")

    def test_pump2_synthesis(self, quick_bell):
        from stabsim.scenarios import _select_pumps
        two = _select_pumps(quick_bell, "P1+P2")
        assert len(two.pumps) == 2
        # resonant with the gap between the doubly excited state and the
        # pumped (upper) eigenstate: 2*4202 - 4207
        assert two.pumps[1].frequency == pytest.approx(4197.0)

    def test_pump2_needs_pump1(self, quick_bell):
        with pytest.raises(ValueError, match="needs pump 1"):
            run_bell(quick_bell.replace(pumps=()), pumps="P1+P2")

    def test_coherent_only_dynamics_rabi_cycles(self, quick_bell):
        # Raman drives off: the pump cycles ground <-> upper eigenstate and
        # the target fidelity stays low
        cfg = quick_bell.replace(
            raman=(ResonatorDrive(detuning=10.0), ResonatorDrive(detuning=10.0)),
            qubits=tuple(type(q)(q.label, q.omega_q, q.alpha, None, None,
                                 q.working_freq) for q in quick_bell.qubits))
        report = run_bell(cfg, channels="both")
        assert report.traces["F_target"].max() < 0.2
        assert report.traces["P_S"].max() > 0.5

    def test_wrong_qubit_count_rejected(self, quick_bell):
        with pytest.raises(ValueError, match="three-qubit"):
            run_w(quick_bell)
        with pytest.raises(ValueError, match="two-qubit"):
            run_bell(bundled_scenario("w"))

    def test_qubit_only_initial_state(self):
        # bell_single_channel on R1 drives no resonator: rho0 is the
        # configured qubit state times the empty resonator factor [1]
        cfg = scenarios._select_channels(
            bundled_scenario("bell_single_channel"), "R1")
        model, _ = build_problem(cfg)
        assert model.space.dims == (2, 2)
        psi = named_qubit_state(qubit_space(cfg), cfg.initial_state)
        npt.assert_array_equal(scenarios.initial_density(cfg, model),
                               np.outer(psi, psi.conj()))

    def test_initial_state_override(self, quick_bell):
        report = run_bell(quick_bell, channels="R2", initial="eg")
        assert report.traces["P_eg"][0] == pytest.approx(1.0, abs=1e-9)

    def test_t_step_must_divide_window(self, quick_bell):
        report = run_bell(quick_bell.replace(t_step=0.25), channels="R2")
        npt.assert_array_equal(report.times, np.arange(9) * 0.25)
        with pytest.raises(ValueError, match="t_step 0.3 us .* 2.0 us window"):
            run_bell(quick_bell.replace(t_step=0.3))
        # without decoherence the window is the 30 us plateau window
        ideal = quick_bell.replace(
            t_final=1.4, t_step=0.7,
            qubits=tuple(replace(q, t1=None, t2e=None)
                         for q in quick_bell.qubits))
        with pytest.raises(ValueError, match="t_step 0.7 us .* 30.0 us window"):
            run_bell(ideal)

    def test_fit_window_needs_five_points(self, quick_bell, monkeypatch):
        # refused before the model is built: 0.3 us of 0.1 us steps holds
        # 4 points, and the rate fit takes 5
        monkeypatch.setattr(scenarios, "build_problem", None)
        with pytest.raises(ValueError, match="t_final 0.3 us holds 4 grid"):
            run_bell(quick_bell.replace(t_final=0.3))


def sparse_observables(config, model, target):
    """The scenario observables as sparse Kronecker products of the qubit
    projectors with the resonator identity, and the lab photon numbers
    c^dag c + alpha (c^dag + c) + alpha^2 as sparse sums."""
    qspace, space = qubit_space(config), model.space
    d = space.total_dim
    eye = sp.identity(d // qspace.total_dim, format="csr")

    def projector(label):
        psi = named_qubit_state(qspace, label)
        return sp.kron(sp.csr_matrix(np.outer(psi, psi.conj())), eye,
                       format="csr")

    n = config.n_qubits
    obs = {f"P_{label}": projector(label) for label in
           _qubit_state_labels(n) + scenarios._eigenstate_labels(n)}
    obs["F_target"] = projector(target)
    photons = dict.fromkeys((r.label for r in config.resonators),
                            sp.csr_matrix((d, d)))
    for mode, r in enumerate(model.resonators, start=n):
        c = sp.csr_matrix(lowering_op(space, mode))
        cd = c.conj().T
        photons[r.label] = (cd @ c + r.alpha * (cd + c)
                            + r.alpha ** 2 * sp.identity(d, format="csr"))
    obs.update((f"n_{label}", op) for label, op in photons.items())
    return obs


class TestObservables:
    @pytest.mark.parametrize("name, target", [
        ("bell", "T"), ("bell_single_channel", "T"), ("w", "W")])
    def test_dense_weights_match_sparse_products(self, name, target):
        # the dense arrays hold the sparse construction's values exactly
        # (the signs of zero parts aside)
        cfg = bundled_scenario(name)
        model = build_problem(cfg)[0]
        got = scenarios._scenario_observables(cfg, model, target)
        ref = sparse_observables(cfg, model, target)
        assert list(got) == list(ref)
        for key, op in ref.items():
            assert got[key].dtype == op.dtype, key
            npt.assert_array_equal(got[key], op.toarray(), err_msg=key)

    @pytest.mark.parametrize("name, qubit_dim, channels", [
        ("bell", 2, "both"), ("w", 2, "both"), ("bell", 3, "both"),
        ("bell_single_channel", 2, "R1")])
    def test_table_reads_match_kronecker_products(self, name, qubit_dim,
                                                  channels):
        # the projectors and rho0 read off the occupation table equal the
        # Kronecker constructions bit for bit: |psi><psi| x 1_res, and
        # psi_q x (x) coherent(-alpha); w leaves its undriven R1 out, and
        # bell_single_channel on R1 is qubit-only
        cfg = bundled_scenario(name)
        cfg = scenarios._select_channels(cfg.replace(truncations=replace(
            cfg.truncations, qubit_dim=qubit_dim)), channels)
        model = build_dispersive(cfg)
        qspace, n = qubit_space(cfg), cfg.n_qubits
        eye = np.eye(model.space.total_dim // qspace.total_dim)
        coherent = functools.reduce(np.kron, [
            coherent_state(cfg.truncations.resonator_dim, -r.alpha)
            for r in model.resonators], np.ones(1))
        for label in _qubit_state_labels(n) + scenarios._eigenstate_labels(n):
            psi = named_qubit_state(qspace, label)
            npt.assert_array_equal(
                scenarios._qubit_projector(model.space, psi),
                np.kron(np.outer(psi, psi.conj()), eye), err_msg=label)
            ref = np.kron(psi, coherent)
            npt.assert_array_equal(
                scenarios.initial_density(cfg, model, label),
                np.outer(ref, ref.conj()), err_msg=label)
        npt.assert_array_equal(
            scenarios.initial_density(cfg, model),
            scenarios.initial_density(cfg, model, cfg.initial_state))


def complex_amplitude_frame(config, model):
    """X -> U X U^dag for U = exp(i sum_r phi_r n_r), phi_r the phase of
    resonator r's lab-frame steady amplitude -eps (det + i kappa/2) /
    (det^2 + kappa^2/4): the map to the frame where that amplitude is
    complex.  Entries between states of equal phase are kept exactly."""
    phase = np.zeros(model.space.total_dim)
    for mode, r in enumerate(model.resonators, start=config.n_qubits):
        kappa = config.resonators[r.index].kappa
        phase += (np.angle(-(r.detuning + 0.5j * kappa))
                  * model.space.occupations[mode])

    def rotate(X):
        return X * np.exp(1j * np.subtract.outer(phase, phase))

    return rotate


class TestResonatorPhaseFrame:
    # bell (d = 64) and bell_single_channel (d = 24) both propagate by
    # Chebyshev; in the complex frame its matrix has the extra nonzeros
    # that the real frame saves
    @pytest.mark.parametrize("name, nnz", [
        ("bell", (47_008, 59_104)), ("bell_single_channel", (5_494, 6_414))])
    def test_complex_amplitude_frame_gives_the_same_run(self, name, nnz):
        cfg = bundled_scenario(name)
        model, L = build_problem(cfg)
        rotate = complex_amplitude_frame(cfg, model)
        H = rotate(model.H)
        assert abs(H.imag).max() > 1e-3 * abs(H).max()
        rho0 = scenarios.initial_density(cfg, model)
        obs = {k: v for k, v in scenarios._scenario_observables(
            cfg, model, "T").items() if k == "F_target" or k.startswith("n_")}
        t = np.linspace(0.0, 10 * cfg.t_step, 11)
        real = evolve(L, rho0, t, observables=obs)
        # U only rephases each c_r, which leaves every D(c) as it is
        rotated = evolve(
            build_liouvillian(model.space, H, L.collapse),
            rotate(rho0), t,
            observables={k: rotate(v) for k, v in obs.items()})
        assert (real.diagnostics["propagator"]["matrix_nnz"],
                rotated.diagnostics["propagator"]["matrix_nnz"]) == nnz
        assert real.observables["n_R2"].real.max() > 0.1
        for key in obs:
            npt.assert_allclose(rotated.observables[key],
                                real.observables[key], rtol=0, atol=1e-12)


class TestCoherentOnlyThreeQubit:
    def test_pump_rabi_cycles_without_engineered_dissipation(self):
        # with the engineered channels off the drive coherently cycles the
        # ground state against the pumped eigenstate and the target stays
        # unpopulated; undriven resonators are exactly inert, so the
        # qubit-only model suffices
        cfg = bundled_scenario("w").replace(
            raman=(ResonatorDrive(),) * 3,
            qubits=tuple(type(q)(q.label, q.omega_q, q.alpha, None, None,
                                 q.working_freq)
                         for q in bundled_scenario("w").qubits))
        model, liouv = build_problem(cfg)
        ground = named_qubit_state(model.space, "ggg")
        rho0 = np.outer(ground, ground.conj())
        obs = {name: np.asarray(named_qubit_state(model.space, name))
               for name in ("W", "B", "ggg")}
        t = np.linspace(0.0, 10.0, 201)
        res = evolve(liouv, rho0, t, observables=obs)
        assert np.real(res.observables["W"]).max() < 0.2
        assert np.real(res.observables["B"]).max() > 0.6
        # full cycles: the ground population returns near 1 repeatedly
        ground = np.real(res.observables["ggg"])
        assert ground.min() < 0.4 and ground[ground > 0.95].size > 5


class TestSpectroscopy:
    def test_two_peaks_split_by_twice_coupling(self):
        cfg = bundled_scenario("bell")
        work = cfg.qubits[0].working_freq
        freqs = np.arange(work - 10.0, work + 10.25, 0.25)
        result = run_spectroscopy(cfg, 0, freqs, amplitude=0.15)
        total = result.total_excitation
        # find the two local maxima
        peaks = [i for i in range(1, len(freqs) - 1)
                 if total[i] >= total[i - 1] and total[i] >= total[i + 1]
                 and total[i] > 0.3 * total.max()]
        assert len(peaks) == 2
        split = freqs[peaks[1]] - freqs[peaks[0]]
        assert split == pytest.approx(2 * cfg.couplings[0], abs=0.5)
        # both eigenstates carry equal single-qubit weights
        i0 = peaks[0]
        assert result.populations["ge"][i0] == pytest.approx(
            result.populations["eg"][i0], abs=0.02)

    def test_uncoupled_qubits_single_peak(self):
        cfg = bundled_scenario("bell")
        cfg = cfg.replace(couplings=(0.0,))
        work = cfg.qubits[0].working_freq
        freqs = np.arange(work - 8.0, work + 8.5, 0.5)
        result = run_spectroscopy(cfg, 0, freqs, amplitude=0.15)
        total = result.total_excitation
        peaks = [i for i in range(1, len(freqs) - 1)
                 if total[i] >= total[i - 1] and total[i] >= total[i + 1]
                 and total[i] > 0.3 * total.max()]
        assert len(peaks) == 1
        assert freqs[peaks[0]] == pytest.approx(work, abs=0.5)

    def test_no_frequencies_gives_empty_scan(self):
        result = run_spectroscopy(bundled_scenario("bell"), 0, [],
                                  amplitude=0.15)
        assert result.frequencies.shape == (0,)
        assert result.total_excitation.shape == (0,)
        assert all(p.shape == (0,) for p in result.populations.values())
        assert result.diagnostics["rhs_evaluations"] == 0

    def test_strong_probe_rejected(self):
        # a negative amplitude is the same probe up to a phase
        cfg = bundled_scenario("bell")
        for amplitude in (3.0, -3.0):
            with pytest.raises(ValueError, match="amplitude"):
                run_spectroscopy(cfg, 0, [4202.0], amplitude=amplitude)

    def test_non_finite_amplitude_refused(self):
        cfg = bundled_scenario("bell")
        for amplitude in (math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="probe amplitude must be finite"):
                run_spectroscopy(cfg, 0, [4202.0], amplitude=amplitude)

    @pytest.mark.parametrize("target, amplitude, named", [
        (0.5, 0.1, "drive target must be an integer qubit index, got 0.5"),
        ("0", 0.1, "drive target must be an integer qubit index"),
        (0, 0.0, "probe amplitude must be nonzero"),
        (np.int64(1), -0.0, "probe amplitude must be nonzero")])
    def test_probe_that_drives_nothing_refused(self, monkeypatch, target,
                                               amplitude, named):
        # refused by name before any build: either probe reads all-ground
        monkeypatch.setattr(scenarios, "build_problem", None)
        cfg = bundled_scenario("bell")
        with pytest.raises(ValueError, match=named):
            run_spectroscopy(cfg, target, [4202.0], amplitude=amplitude)
        # a numpy integer is an index (no frequencies: nothing is built)
        assert run_spectroscopy(cfg, np.int64(1), [],
                                amplitude=0.1).frequencies.size == 0

    def test_bad_duration_refused(self, monkeypatch):
        # refused by name before any build, NaN without a warning
        monkeypatch.setattr(scenarios, "build_problem", None)
        cfg = bundled_scenario("bell")
        for duration in (0.0, -1.0, math.nan, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="probe duration must "
                                   "be positive and finite"):
                    run_spectroscopy(cfg, 0, [4202.0], amplitude=0.1,
                                     duration=duration)

    def test_scan_makes_few_sparse_constructions(self, monkeypatch):
        # every sparse matrix stabsim makes is made by calls of scipy's
        # compiled kernels.  A scan assembles L and the diagonal F from
        # triplets (COO -> CSR; L's rows sorted), transposes L and the
        # Hermitian basis Q, forms Q^dag L Q and Q^dag F Q (two products
        # each), reads x0 = Q^dag vec(rho0) and makes the two real
        # generators dense, once whatever its frequencies; H, the collapse
        # operators and the observables are dense arrays
        from stabsim import lindblad
        kernels, made = lindblad._sparsetools, []

        class Counting:
            def __getattr__(self, name):
                made.append(name)
                return getattr(kernels, name)

        monkeypatch.setattr(lindblad, "_sparsetools", Counting())
        counts = []
        for points in (2, 81):
            made.clear()
            run_spectroscopy(bundled_scenario("bell"), 0,
                             np.linspace(4192.0, 4212.0, points),
                             amplitude=0.1)
            counts.append(collections.Counter(made))
        assert counts[0] == counts[1]
        assert counts[1] == {
            "coo_tocsr": 2, "csr_has_sorted_indices": 2,
            "csr_sort_indices": 1, "csr_sum_duplicates": 2,
            "csr_eliminate_zeros": 2,
            "csr_tocsc": 2, "csr_matmat_maxnnz": 4, "csr_matmat": 4,
            "csc_matvec": 1, "csr_todense": 2}

    def test_w_three_peaks_at_mode_ladder(self):
        # probe the edge qubit: it has weight in all three single-excitation
        # eigenstates (the middle qubit is absent from the antisymmetric one)
        cfg = bundled_scenario("w")
        work = cfg.qubits[0].working_freq
        freqs = np.arange(work - 8.0, work + 13.5, 0.5)
        result = run_spectroscopy(cfg, 0, freqs, amplitude=0.15)
        total = result.total_excitation
        peaks = [i for i in range(1, len(freqs) - 1)
                 if total[i] >= total[i - 1] and total[i] >= total[i + 1]
                 and total[i] > 0.3 * total.max()]
        assert len(peaks) == 3
        positions = freqs[peaks] - freqs[peaks[0]]
        j = cfg.couplings[0]
        npt.assert_allclose(positions, [0.0, j, 3 * j], atol=0.5)


def probe_configs():
    bell = bundled_scenario("bell")
    return {
        "bell": bell,
        "w": bundled_scenario("w"),
        "bell_qutrit": bell.replace(
            truncations=Truncations(qubit_dim=3, resonator_dim=4)),
        # d = 36: d^2 = 1296, a family too large to batch dense, takes
        # the Chebyshev block
        "bell_qd6": bell.replace(
            truncations=Truncations(qubit_dim=6, resonator_dim=4)),
    }


#: (frequencies, duration in us) of each scan compared with rebuilds
PROBE_SCANS = {"bell": (9, 4.0), "w": (9, 4.0), "bell_qutrit": (9, 4.0),
               "bell_qd6": (2, 0.4)}


def rebuilt_probe_liouvillian(cfg, amps, freq):
    """Probe generator built from scratch with the pump at ``freq``."""
    probe = cfg.replace(
        pumps=(PumpDrive(amps, float(freq)),),
        raman=tuple(ResonatorDrive(detuning=d.detuning, n_bar=0.0)
                    for d in cfg.raman))
    return build_problem(probe)[1]


class TestSpectroscopyFrameShift:
    @pytest.mark.parametrize("name", ["bell", "w", "bell_qutrit"])
    def test_shifted_generator_matches_rebuild(self, name):
        cfg = probe_configs()[name]
        amps = (0.15,) + (0.0,) * (cfg.n_qubits - 1)
        work = cfg.qubits[0].working_freq
        freqs = np.array([work - 7.3, work, work + 2.5, work + 11.0])
        base, number, shifts = _probe_family(cfg, amps, freqs)
        # L(f) = L(f0) + delta F with F = -i[N_q, .], the family that
        # evolve_shifted propagates, and H(f) = H(f0) + delta N_q
        for f, delta in zip(freqs, shifts):
            ref = rebuilt_probe_liouvillian(cfg, amps, f)
            scale = abs(scipy_csr(ref.matrix)).max()
            shift = sp.diags(delta * _commutator_diagonal(number))
            assert (abs(scipy_csr(base.matrix) + shift - scipy_csr(ref.matrix))
                    .max() <= 1e-9 * scale)
            assert abs(base.hamiltonian + np.diag(delta * number)
                       - ref.hamiltonian).max() <= 1e-9 * scale

    @pytest.mark.parametrize("name", list(PROBE_SCANS))
    def test_populations_match_per_frequency_rebuild(self, name):
        cfg = probe_configs()[name]
        count, duration = PROBE_SCANS[name]
        amps = (0.15,) + (0.0,) * (cfg.n_qubits - 1)
        work = cfg.qubits[0].working_freq
        freqs = np.linspace(work - 8.0, work + 12.0, count)
        result = run_spectroscopy(cfg, 0, freqs, amplitude=0.15,
                                  duration=duration)
        qspace = qubit_space(cfg)
        labels = _qubit_state_labels(cfg.n_qubits)
        obs = {lab: named_qubit_state(qspace, lab) for lab in labels}
        ground = named_qubit_state(qspace, "g" * cfg.n_qubits)
        rho0 = np.outer(ground, ground.conj())
        t = np.linspace(0.0, duration, 81)
        for k, f in enumerate(freqs):
            res = evolve(rebuilt_probe_liouvillian(cfg, amps, f), rho0, t,
                         observables=obs)
            for lab in labels:
                ref = np.real(res.observables[lab][t >= duration / 2]).mean()
                assert abs(result.populations[lab][k] - ref) <= 1e-9


class TestSweep:
    def test_rows_follow_requested_values(self, quick_bell):
        cfg = quick_bell.replace(t_final=2.0)
        values = [0.2, 0.6]
        result = run_sweep(cfg, "n_bar", values)
        npt.assert_array_equal(result.values, values)
        assert result.errors == [None, None]
        assert np.isfinite(result.steady_fidelity).all()
        assert np.isfinite(result.gamma_st).all()

    def test_unknown_axis_rejected(self, quick_bell):
        with pytest.raises(ValueError, match="axis"):
            run_sweep(quick_bell, "voltage", [1.0])

    def test_three_qubit_config_rejected(self):
        with pytest.raises(ValueError, match="two-qubit config .* got 3"):
            run_sweep(bundled_scenario("w"), "n_bar", [1.0])

    def test_point_failure_recorded(self, quick_bell):
        result = run_sweep(quick_bell, "kappa", [-1.0, 1.0])
        assert result.errors[0] is not None and "kappa" in result.errors[0]
        assert math.isnan(result.steady_fidelity[0])
        assert math.isnan(result.steady_residual[0])
        assert math.isnan(result.kernel_gap[0])
        assert result.errors[1] is None
        assert result.steady_residual[1] <= quick_bell.solver.steady_tol
        assert 1e-8 < result.kernel_gap[1] <= 1.0

    def test_point_config_validated(self):
        # a point's config is refused as a loaded scenario would be, not run
        cfg = bundled_scenario("bell_single_channel")
        for axis, value, error in [
                ("n_bar", -0.5, "ConfigError: raman[1].n_bar: "),
                ("T1", 5.0, "ConfigError: qubits[0].t2e: ")]:
            result = run_sweep(cfg, axis, [value])
            assert result.errors[0].startswith(error)
            assert math.isnan(result.steady_fidelity[0])

    def test_non_finite_values_refused(self):
        # no point runs: NaN is refused on every axis, inf off the
        # coherence times, where it means no channel
        cfg = bundled_scenario("bell_single_channel")
        for axis, values, message in [
                ("n_bar", [0.5, math.nan], "n_bar values must be finite: "
                                           r"rows \[1\] are \[nan\]"),
                ("kappa", [math.inf], "kappa values must be finite: "
                                      r"rows \[0\] are \[inf\]"),
                ("T1", [math.nan, math.inf], "T1 values must be finite or "
                                             r"inf: rows \[0\] are \[nan\]")]:
            with pytest.raises(ValueError, match=message):
                run_sweep(cfg, axis, values)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        # refused, not run in one process
        with pytest.raises(ValueError, match="workers must be at least 1, "
                                             f"got {workers}"):
            run_sweep(bundled_scenario("bell_single_channel"), "n_bar",
                      [0.5], workers=workers)

    def test_parallel_workers_match_serial(self, quick_bell):
        cfg = quick_bell.replace(t_final=2.0)
        serial = run_sweep(cfg, "n_bar", [0.2, 0.5], workers=1)
        parallel = run_sweep(cfg, "n_bar", [0.2, 0.5], workers=2)
        npt.assert_array_equal(serial.values, parallel.values)
        npt.assert_allclose(serial.steady_fidelity, parallel.steady_fidelity,
                            atol=1e-12)
        npt.assert_allclose(serial.gamma_st, parallel.gamma_st, atol=1e-9)
        for res in (serial, parallel):
            assert (res.steady_residual <= cfg.solver.steady_tol).all()
            assert ((res.kernel_gap > 1e-8) & (res.kernel_gap <= 1.0)).all()
        npt.assert_allclose(serial.kernel_gap, parallel.kernel_gap, atol=1e-9)

    def test_axis_application(self):
        from stabsim.scenarios import _apply_axis
        cfg = bundled_scenario("bell_single_channel")
        assert _apply_axis(cfg, "n_bar", 0.3).raman[1].n_bar == 0.3
        assert _apply_axis(cfg, "n_bar", 0.3).raman[0].n_bar == 0.0
        assert _apply_axis(cfg, "chi", -0.5).resonators[1].chi == -0.5
        assert _apply_axis(cfg, "kappa", 2.0).resonators[1].kappa == 2.0
        assert _apply_axis(cfg, "T1", 50.0).qubits[0].t1 == 50.0
        assert _apply_axis(cfg, "T1", math.inf).qubits[0].t1 is None
        assert _apply_axis(cfg, "T_phi", 20.0).qubits[1].t2e == 20.0


class TestReportOutput:
    def test_files_and_columns(self, quick_bell, tmp_path):
        report = run_bell(quick_bell, channels="R2")
        out = write_report(report, tmp_path / "run1")
        payload = json.loads((out / "report.json").read_text())
        assert "steady_fidelity" in payload
        assert payload["scenario"] == "bell"
        steady = payload["diagnostics"]["steady_state"]
        assert steady["method"] == "sylvester_arnoldi"
        assert steady["residual"] == payload["steady_residual"]
        assert steady["residual"] <= quick_bell.solver.steady_tol
        assert type(steady["iterations"]) is int and steady["iterations"] > 0
        assert 1e-8 < steady["kernel_gap"] <= 1.0
        assert steady["min_eigenvalue"] >= -1e-12
        for key in ("max_trace_drift", "max_hermiticity_defect",
                    "min_eigenvalue", "rhs_evaluations"):
            assert key in payload["diagnostics"]
        # d = 8 runs one Chebyshev plan: two expansions of 227 terms serve
        # the 20 steps
        prop = payload["diagnostics"]["propagator"]
        assert prop == {
            "method": "chebyshev", "terms": 227, "substeps": 1,
            "outputs_per_expansion": 10, "matrix_nnz": 502,
            "half_width": report.diagnostics["propagator"]["half_width"]}
        assert prop["half_width"] > 0
        assert payload["diagnostics"]["rhs_evaluations"] == 2 * 226
        header = (out / "traces.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "t_us"
        assert set(header[1:]) == set(report.traces)
        n_rows = len((out / "traces.csv").read_text().splitlines()) - 1
        assert n_rows == len(report.times)

    @pytest.mark.parametrize("decoherence", [True, False])
    def test_relaxation_diagnostics(self, quick_bell, decoherence):
        # F at the end of the fitted window, and the fit's asymptote, each
        # less the steady F; the window the fit covers
        cfg = quick_bell if decoherence else quick_bell.replace(
            qubits=tuple(replace(q, t1=None, t2e=None)
                         for q in quick_bell.qubits))
        report = run_bell(cfg, channels="R2")
        diag, steady = report.diagnostics, report.steady_fidelity
        window = report.times <= cfg.t_final
        fid = report.traces["F_target"]
        assert diag["fit_window_us"] == [0.0, cfg.t_final]
        assert diag["final_minus_steady_fidelity"] == (
            fid[window][-1] - steady)
        fit = fit_exponential(report.times[window], fid[window])
        assert diag["fit_asymptote_minus_steady_fidelity"] == (
            fit.asymptote - steady)

    def test_reports_are_bit_identical(self, quick_bell, tmp_path):
        a = write_report(run_bell(quick_bell, channels="R2"), tmp_path / "a")
        b = write_report(run_bell(quick_bell, channels="R2"), tmp_path / "b")
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "traces.csv").read_bytes() == (b / "traces.csv").read_bytes()

    def test_sweep_output(self, quick_bell, tmp_path):
        result = run_sweep(quick_bell.replace(t_final=2.0), "kappa",
                           [0.3, -1.0])
        out = write_sweep(result, tmp_path / "sw")
        payload = json.loads((out / "report.json").read_text())
        assert payload["axis"] == "kappa"
        assert payload["steady_residual"][0] == result.steady_residual[0]
        assert payload["kernel_gap"][0] == result.kernel_gap[0]
        assert payload["steady_residual"][1] is None
        assert payload["kernel_gap"][1] is None
        lines = (out / "traces.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",") == ["kappa", "steady_fidelity",
                                       "gamma_st_per_us", "steady_residual",
                                       "kernel_gap", "error"]

    @pytest.mark.parametrize("count", [3, 0])
    def test_spectroscopy_output(self, tmp_path, count):
        # one repr-float row per frequency, and the scan's diagnostics
        freqs = np.linspace(4200.0, 4204.0, count)
        result = run_spectroscopy(bundled_scenario("bell"), 0, freqs, 0.1)
        out = write_spectroscopy(result, tmp_path / "spec")
        lines = (out / "traces.csv").read_text().splitlines()
        assert lines[0].split(",") == ["freq_mhz", "gg", "ge", "eg", "ee",
                                       "total_excitation"]
        assert len(lines) == 1 + count
        for i, line in enumerate(lines[1:]):
            row = [freqs[i], *(pops[i] for pops in result.populations.values()),
                   result.total_excitation[i]]
            assert line.split(",") == [repr(float(v)) for v in row]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag == result.diagnostics
