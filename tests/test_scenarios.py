import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim.device import (
    PumpDrive, ResonatorDrive, Truncations, bundled_scenario,
)
from stabsim.hamiltonian import named_qubit_state, qubit_space
from stabsim.hilbert import DensityMatrix
from stabsim.lindblad import evolve
from stabsim.scenarios import (
    DegenerateDataError, _probe_liouvillians, _qubit_state_labels,
    build_problem, fit_exponential, run_bell, run_spectroscopy, run_sweep, run_w, write_report, write_sweep,
)


@pytest.fixture(scope="module")
def quick_bell():
    """Reduced two-qubit config: small truncations and a short window."""
    return bundled_scenario("bell").replace(
        t_final=2.0, t_step=0.1,
        truncations=Truncations(qubit_dim=2, resonator_dim=4,
                                resonator_dims=(2, 3)))


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

    def test_initial_state_override(self, quick_bell):
        report = run_bell(quick_bell, channels="R2", initial="eg")
        assert report.traces["P_eg"][0] == pytest.approx(1.0, abs=1e-9)


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
        rho0 = DensityMatrix.from_state_vector(
            model.space, named_qubit_state(model.space, "ggg"))
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
        assert split == pytest.approx(2 * cfg.couplings.j[0], abs=0.5)
        # both eigenstates carry equal single-qubit weights
        i0 = peaks[0]
        assert result.populations["ge"][i0] == pytest.approx(
            result.populations["eg"][i0], abs=0.02)

    def test_uncoupled_qubits_single_peak(self):
        cfg = bundled_scenario("bell")
        cfg = cfg.replace(couplings=type(cfg.couplings)((0.0,)))
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
        cfg = bundled_scenario("bell")
        with pytest.raises(ValueError, match="amplitude"):
            run_spectroscopy(cfg, 0, [4202.0], amplitude=3.0)

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
        j = cfg.couplings.j[0]
        npt.assert_allclose(positions, [0.0, j, 3 * j], atol=0.5)


def probe_configs():
    bell = bundled_scenario("bell")
    return {
        "bell": bell,
        "w": bundled_scenario("w"),
        "bell_qutrit": bell.replace(
            truncations=Truncations(qubit_dim=3, resonator_dim=4)),
    }


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
        for f, shifted in zip(freqs, _probe_liouvillians(cfg, amps, freqs)):
            ref = rebuilt_probe_liouvillian(cfg, amps, f)
            scale = abs(ref.matrix).max()
            assert abs(shifted.matrix - ref.matrix).max() <= 1e-9 * scale
            assert abs(shifted.hamiltonian.matrix
                       - ref.hamiltonian.matrix).max() <= 1e-9 * scale

    @pytest.mark.parametrize("name", ["bell", "w", "bell_qutrit"])
    def test_populations_match_per_frequency_rebuild(self, name):
        cfg = probe_configs()[name]
        amps = (0.15,) + (0.0,) * (cfg.n_qubits - 1)
        work = cfg.qubits[0].working_freq
        freqs = np.linspace(work - 8.0, work + 12.0, 9)
        result = run_spectroscopy(cfg, 0, freqs, amplitude=0.15)
        qspace = qubit_space(cfg)
        labels = _qubit_state_labels(cfg.n_qubits)
        obs = {lab: named_qubit_state(qspace, lab) for lab in labels}
        rho0 = DensityMatrix.from_state_vector(
            qspace, named_qubit_state(qspace, "g" * cfg.n_qubits))
        t = np.linspace(0.0, 4.0, 81)
        for k, f in enumerate(freqs):
            res = evolve(rebuilt_probe_liouvillian(cfg, amps, f), rho0, t,
                         observables=obs)
            for lab in labels:
                ref = np.real(res.observables[lab][t >= 2.0]).mean()
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

    def test_point_failure_recorded(self, quick_bell):
        result = run_sweep(quick_bell, "kappa", [-1.0, 1.0])
        assert result.errors[0] is not None and "kappa" in result.errors[0]
        assert math.isnan(result.steady_fidelity[0])
        assert math.isnan(result.steady_residual[0])
        assert math.isnan(result.kernel_gap[0])
        assert result.errors[1] is None
        assert result.steady_residual[1] <= quick_bell.solver.steady_tol
        assert 1e-8 < result.kernel_gap[1] <= 1.0

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
        assert steady["method"] == "sylvester_gmres"
        assert steady["residual"] == payload["steady_residual"]
        assert steady["residual"] <= quick_bell.solver.steady_tol
        assert type(steady["iterations"]) is int and steady["iterations"] > 0
        assert 1e-8 < steady["kernel_gap"] <= 1.0
        for key in ("max_trace_drift", "max_hermiticity_defect",
                    "min_eigenvalue", "rhs_evaluations"):
            assert key in payload["diagnostics"]
        # d = 24 (d^2 = 576) takes the dense propagator, one matvec a step
        assert payload["diagnostics"]["propagator"] == {
            "method": "dense_expm", "terms": None, "substeps": 1,
            "outputs_per_expansion": None, "half_width": None}
        assert payload["diagnostics"]["rhs_evaluations"] == len(report.times) - 1
        header = (out / "traces.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "t_us"
        assert set(header[1:]) == set(report.traces)
        n_rows = len((out / "traces.csv").read_text().splitlines()) - 1
        assert n_rows == len(report.times)

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
