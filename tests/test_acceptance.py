"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

The expensive scenario runs are shared through module-scoped fixtures; the
whole module is self-contained and runs on the bundled golden scenarios.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    directionality_ratio, pump_matrix_element, three_level_liouvillian,
)
from stabsim.device import (
    QubitParams, ResonatorDrive, bundled_scenario,
)
from stabsim.effective import (
    ThreeLevelParams, exact_fidelity, experiment_estimate,
)
from stabsim.hamiltonian import (
    TWO_PI, build_dispersive, named_qubit_state, qubit_space,
)
from stabsim.lindblad import build_liouvillian, evolve, steady_state
from stabsim.modes import (
    QuadraticForm, build_quadratic_form, cooling_matrix, kerr_coefficients,
    normal_modes,
)
from stabsim.rates import golden_rule_rate
from stabsim.scenarios import (
    _qubit_projector, build_problem, initial_density, measure_transfer_rate,
    run_bell, run_sweep, run_w,
)

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"

_all_reports = []


def check(label: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")
    assert passed, f"{label}: {detail}"


def no_decoherence(cfg):
    return cfg.replace(qubits=tuple(
        QubitParams(q.label, q.omega_q, q.alpha, None, None, q.working_freq)
        for q in cfg.qubits))


def t1_only(cfg, t1=27.0):
    return cfg.replace(qubits=tuple(
        QubitParams(q.label, q.omega_q, q.alpha, t1, None, q.working_freq)
        for q in cfg.qubits))


def _tracked(report):
    _all_reports.append(report)
    return report


# -- shared runs ---------------------------------------------------------------

@pytest.fixture(scope="module")
def single_channel_triple():
    cfg = bundled_scenario("bell_single_channel")
    runs = {}
    for tag, variant in (("ideal", no_decoherence(cfg)),
                         ("t1", t1_only(cfg)),
                         ("t1_tphi", cfg)):
        tic = time.monotonic()
        runs[tag] = _tracked(run_bell(variant, channels="R2"))
        runs[tag + "_seconds"] = time.monotonic() - tic
    return runs


@pytest.fixture(scope="module")
def bell_experiment():
    cfg = bundled_scenario("bell")
    runs = {
        "both": _tracked(run_bell(cfg, channels="both")),
        "R1": _tracked(run_bell(cfg, channels="R1")),
        "R2": _tracked(run_bell(cfg, channels="R2")),
    }
    for init in ("ge", "eg", "ee"):
        runs[f"init_{init}"] = _tracked(
            run_bell(cfg, channels="both", initial=init))
    runs["init_gg"] = runs["both"]
    p2 = bundled_scenario("bell_pump2")
    runs["ee_pump2"] = _tracked(run_bell(p2, channels="both", pumps="P1+P2",
                                         initial="ee"))
    return runs


@pytest.fixture(scope="module")
def w_run():
    return _tracked(run_w(bundled_scenario("w")))


# -- criteria -------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_single_channel_fidelity_triple(single_channel_triple):
    r = single_channel_triple
    f_ideal = r["ideal"].steady_fidelity
    f_t1 = r["t1"].steady_fidelity
    f_both = r["t1_tphi"].steady_fidelity
    check("criterion 1a", f_ideal >= 0.985,
          f"decoherence-free steady F = {f_ideal:.5f} (>= 0.985)")
    check("criterion 1b", abs(f_t1 - 0.97) <= 0.01,
          f"T1-only steady F = {f_t1:.5f} (0.97 +/- 0.01)")
    check("criterion 1c", abs(f_both - 0.94) <= 0.015,
          f"T1+Tphi steady F = {f_both:.5f} (0.94 +/- 0.015)")
    worst = max(r["ideal_seconds"], r["t1_seconds"], r["t1_tphi_seconds"])
    check("criterion 1d", worst <= 60.0,
          f"slowest case took {worst:.1f} s (<= 60 s)")


def test_criterion_2_bell_eigenstructure():
    cfg = bundled_scenario("bell")
    j = cfg.couplings[0]
    # dispersive model, drives off
    bare = cfg.replace(pumps=(), raman=(ResonatorDrive(detuning=10.0),) * 2)
    model = build_dispersive(bare)
    block = _single_exc(model, cfg)
    gap_h = np.ptp(np.linalg.eigvalsh(block)) / TWO_PI
    # normal-mode analysis of the quadratic model with detached resonators
    detached = bare.replace(resonators=tuple(
        type(r)(r.label, r.omega_r, r.kappa, r.chi, 0.0)
        for r in bare.resonators))
    basis = normal_modes(build_quadratic_form(detached))
    gap_m = basis.lambda_q[1] - basis.lambda_q[0]
    ok = (abs(gap_h - 2 * j) <= 1e-9 * 2 * j
          and abs(gap_m - 2 * j) <= 1e-9 * 2 * j)
    check("criterion 2", ok,
          f"single-excitation gap = {gap_h:.12f} (H), {gap_m:.12f} (modes) "
          f"vs 2J = {2 * j}")


def test_criterion_3_w_eigenstructure():
    cfg = bundled_scenario("w")
    j = cfg.couplings[0]
    bare = cfg.replace(pumps=(), raman=(ResonatorDrive(),) * 3)
    model = build_dispersive(bare)
    vals = np.linalg.eigvalsh(_single_exc(model, cfg)) / TWO_PI
    rel = vals - vals[0]
    ok = np.allclose(rel, [0.0, j, 3 * j], rtol=0, atol=1e-9 * 3 * j)
    check("criterion 3", ok, f"relative eigenvalues {rel} vs (0, J, 3J)")


def _single_exc(model, cfg):
    space = model.space
    idx = []
    for i in range(cfg.n_qubits):
        occ = [0] * len(space.modes)
        occ[i] = 1
        idx.append(space.index(occ))
    return model.H[np.ix_(idx, idx)]


def test_criterion_4_three_level_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    tic = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        omega, g1, gphi, gs = 10.0 ** rng.uniform(-1.5, 1.5, size=4)
        p = ThreeLevelParams(omega, g1, gphi, gs)
        ss = steady_state(three_level_liouvillian(p), tol=1e-9)
        worst = max(worst, abs(exact_fidelity(p)
                                - float(np.real(ss.rho[2, 2]))))
    elapsed = time.monotonic() - tic
    check("criterion 4", worst <= 1e-8 and elapsed <= 30.0,
          f"max |closed form - oracle| = {worst:.2e} over 1000 draws "
          f"in {elapsed:.1f} s")


def test_criterion_5_experiment_estimate():
    val = experiment_estimate(0.9, (27.0, 27.0), 18.0)
    check("criterion 5", abs(val - 0.9167) <= 5e-4,
          f"estimate = {val:.5f} (0.9167 +/- 0.0005)")


def test_criterion_6_photon_calibration_and_stark_shift():
    from stabsim.hilbert import CompositeSpace, ModeSpec, lowering_op
    # driven damped cavity: steady occupation vs the calibration formula
    delta, kappa = 10.0, 1.1
    worst = 0.0
    for n_bar in (0.1, 0.74, 1.26):
        eps = math.sqrt(n_bar * (delta ** 2 + (kappa / 2) ** 2))
        dim = 30
        space = CompositeSpace([ModeSpec("r", "resonator", dim)])
        c = lowering_op(space, 0)
        n = c.conj().T @ c
        H = (TWO_PI * delta) * n + (TWO_PI * eps) * (c + c.conj().T)
        liouv = build_liouvillian(space, H, [(c, TWO_PI * kappa)])
        ss = steady_state(liouv, tol=1e-8)
        n_sim = float(np.real((n @ ss.rho).trace()))
        worst = max(worst, abs(n_sim / n_bar - 1.0))
    check("criterion 6a", worst <= 0.01,
          f"max photon-number error = {worst * 100:.3f}% (<= 1%)")

    # qubit frequency shift under a populated resonator vs 2*n*chi
    chi, delta, kappa, n_bar = -0.75, 100.0, 1.1, 0.5
    shift = _simulated_stark_shift(chi, delta, kappa, n_bar)
    target = 2 * n_bar * chi
    check("criterion 6b", abs(shift / target - 1.0) <= 0.05,
          f"simulated shift = {shift:.4f} MHz vs 2*n*chi = {target:.4f} "
          f"({abs(shift / target - 1) * 100:.2f}% off)")


def _simulated_stark_shift(chi, delta, kappa, n_bar):
    """Phase-accumulation rate of a qubit superposition while its resonator
    is driven; the probe rotates at the qubit frame so the slope is the
    shift."""
    from stabsim.hilbert import (CompositeSpace, ModeSpec, basis_state,
                                 lowering_op)
    dim = 16
    space = CompositeSpace([ModeSpec("q", "qubit", 2),
                            ModeSpec("r", "resonator", dim)])
    b = lowering_op(space, 0)
    c = lowering_op(space, 1)
    nq = b.conj().T @ b
    nr = c.conj().T @ c
    eps = math.sqrt(n_bar * (delta ** 2 + (kappa / 2) ** 2))
    H = ((TWO_PI * delta) * nr
         + (TWO_PI * 2 * chi) * (nq @ nr)
         + (TWO_PI * eps) * (c + c.conj().T))
    liouv = build_liouvillian(space, H, [(c, TWO_PI * kappa)])
    plus = (basis_state(space, (0, 0)) + basis_state(space, (1, 0))) / math.sqrt(2)
    rho0 = np.outer(plus, plus.conj())
    t = np.linspace(0.0, 3.0, 301)
    res = evolve(liouv, rho0, t, observables={"coh": b})
    coh = np.asarray(res.observables["coh"], dtype=complex)
    sel = t >= 1.0  # cavity settled
    phase = np.unwrap(np.angle(coh[sel]))
    slope = np.polyfit(t[sel], phase, 1)[0]
    return -slope / TWO_PI  # <b> rotates at minus the qubit shift


def test_criterion_7_pump_selection_rules():
    bell = bundled_scenario("bell")
    qs2 = qubit_space(bell)
    pump = bell.pumps[0]
    el = {
        "T<-gg": pump_matrix_element(qs2, pump, named_qubit_state(qs2, "T"),
                                     named_qubit_state(qs2, "gg")),
        "ee<-T": pump_matrix_element(qs2, pump, named_qubit_state(qs2, "ee"),
                                     named_qubit_state(qs2, "T")),
    }
    w = bundled_scenario("w")
    qs3 = qubit_space(w)
    wpump = w.pumps[0]
    el["D<-W"] = pump_matrix_element(qs3, wpump, named_qubit_state(qs3, "D"),
                                     named_qubit_state(qs3, "W"))
    el["E<-A"] = pump_matrix_element(qs3, wpump, named_qubit_state(qs3, "E"),
                                     named_qubit_state(qs3, "A"))
    worst = max(abs(v) for v in el.values())
    check("criterion 7", worst <= 1e-12,
          f"max forbidden matrix element = {worst:.2e} MHz")


@pytest.mark.slow
def test_criterion_8_directionality():
    cfg = bundled_scenario("bell_single_channel")
    res = cfg.resonators[1]
    gap = 2 * cfg.couplings[0]
    est = golden_rule_rate(res.chi, 2 ** -0.5, 2 ** -0.5, 0.74, res.kappa,
                           gap, gap)
    ident = directionality_ratio(gap, res.kappa)
    check("criterion 8a", abs(est.ratio / ident - 1.0) <= 1e-12,
          f"forward/reverse = {est.ratio:.4f} = 16(2J/kappa)^2+1 = {ident:.4f}")

    forward = measure_transfer_rate(cfg, source="S", window=4.0)
    # back transfer measured from the pump-free equilibrium reached from the
    # target state: under detailed balance P_S/P_T is the rate ratio (the
    # residual coherent admixture only overestimates it)
    bare = no_decoherence(cfg).replace(pumps=())
    model, liouv = build_problem(bare)
    rho0 = initial_density(bare, model, "T")
    qsp = qubit_space(bare)
    obs = {"P_S": _qubit_projector(model.space, named_qubit_state(qsp, "S")),
           "P_T": _qubit_projector(model.space, named_qubit_state(qsp, "T"))}
    t = np.linspace(0.0, 6.0, 121)
    resv = evolve(liouv, rho0, t, observables=obs)
    tail = t >= 4.0
    ratio_eq = (np.real(resv.observables["P_S"][tail]).mean()
                / np.real(resv.observables["P_T"][tail]).mean())
    back = forward * ratio_eq
    check("criterion 8b", forward >= 10.0 * back,
          f"forward = {forward:.3f}/us, back <= {back:.4f}/us "
          f"(ratio {forward / back:.0f}x)")


@pytest.mark.slow
def test_criterion_9_lindblad_integrity(single_channel_triple,
                                        bell_experiment, w_run,
                                        lu_steady_state):
    worst_trace = max(r.diagnostics["max_trace_drift"] for r in _all_reports)
    worst_herm = max(r.diagnostics["max_hermiticity_defect"]
                     for r in _all_reports)
    worst_eig = min(r.diagnostics["min_eigenvalue"] for r in _all_reports)
    ok = worst_trace <= 1e-8 and worst_herm <= 1e-9 and worst_eig >= -1e-7
    check("criterion 9a", ok,
          f"over {len(_all_reports)} scenario runs: trace drift {worst_trace:.1e}, "
          f"hermiticity {worst_herm:.1e}, min eig {worst_eig:.1e}")

    cfg = bundled_scenario("bell")
    model, liouv = build_problem(cfg)
    a = steady_state(liouv, tol=cfg.solver.steady_tol).rho
    b = lu_steady_state(liouv)
    qsp = qubit_space(cfg)
    psi = named_qubit_state(qsp, "T")
    proj = _qubit_projector(model.space, psi)
    fa = float(np.real((proj @ a).diagonal().sum()))
    fb = float(np.real((proj @ b).diagonal().sum()))
    check("criterion 9b", abs(fa - fb) <= 1e-4,
          f"Arnoldi vs direct-LU fidelity gap = {abs(fa - fb):.2e}")


@pytest.mark.slow
def test_criterion_10_behavior_reproduction(bell_experiment, w_run):
    r = bell_experiment
    f_both = r["both"].steady_fidelity
    f_single = r["R2"].steady_fidelity
    check("criterion 10a", f_both >= f_single - 0.001,
          f"two-channel F = {f_both:.5f} >= single-channel (R2) "
          f"F - 0.001 = {f_single - 0.001:.5f}")
    check("criterion 10b", r["both"].fitted_rate >= r["R2"].fitted_rate,
          f"two-channel rate {r['both'].fitted_rate:.3f}/us >= "
          f"single-channel {r['R2'].fitted_rate:.3f}/us")

    finals = {init: float(r[f"init_{init}"].traces["F_target"][-1])
              for init in ("gg", "ge", "eg")}
    spread = max(finals.values()) - min(finals.values())
    check("criterion 10c", spread <= 0.005,
          f"end-of-run fidelity spread over initial states = {spread:.4f} "
          f"({finals})")

    f_ee = float(r["init_ee"].traces["F_target"][-1])
    f_ee_p2 = float(r["ee_pump2"].traces["F_target"][-1])
    check("criterion 10d", f_ee < 0.6 and f_ee_p2 > 0.8,
          f"from ee: F = {f_ee:.3f} without the recovery pump, "
          f"{f_ee_p2:.3f} with it")

    tau = r["both"].fitted_tau
    check("criterion 10e", 0.5 <= tau <= 1.5,
          f"fitted stabilization constant = {tau:.3f} us in [0.5, 1.5]")

    fw = w_run.steady_fidelity
    check("criterion 10f", 0.80 <= fw <= 0.95,
          f"W steady fidelity = {fw:.4f} in [0.80, 0.95]")
    golden = json.loads((GOLDENS / "w_summary.json").read_text())
    check("criterion 10g", abs(fw - golden["steady_fidelity"]) <= 5e-3,
          f"W fidelity matches the recorded golden value "
          f"{golden['steady_fidelity']:.4f} within 5e-3")


@pytest.mark.slow
def test_runs_reproduce_goldens(bell_experiment, single_channel_triple):
    """Steady F and fitted rate of the runs recorded by make_goldens.py.

    The steady fidelities were recorded with every resonator in the
    model, so this also shows that leaving the undriven ones out is exact.
    The recorded ``steady_method`` strings name retired solvers and are
    not compared; W's steady F is criterion 10g's.
    """
    def golden(name):
        return json.loads((GOLDENS / name).read_text())

    bell = golden("bell_summary.json")
    triple = golden("single_channel_triple.json")
    runs = [(f"bell {k}", bell_experiment[k], bell[k])
            for k in ("both", "R1", "R2")]
    runs += [(f"single-channel {k}", single_channel_triple[k], triple[k])
             for k in ("ideal", "t1", "t1_tphi")]
    runs.append(("w decoherence-free",
                 run_w(no_decoherence(bundled_scenario("w"))),
                 golden("w_summary.json")["decoherence_free"]))
    d_f = {tag: abs(r.steady_fidelity - g["steady_fidelity"])
           for tag, r, g in runs}
    d_rate = {tag: abs(r.fitted_rate - g["fitted_rate_per_us"])
              for tag, r, g in runs}
    check("goldens", max(d_f.values()) <= 1e-8
          and max(d_rate.values()) <= 1e-6,
          f"over {len(runs)} runs: max |dF| = {max(d_f.values()):.1e} "
          f"(<= 1e-8), max |d rate| = {max(d_rate.values()):.1e}/us "
          f"(<= 1e-6)")


@pytest.mark.slow
def test_undriven_resonator_reports_empty(w_run):
    # W's R1 is undriven, so it is left out of the model and its photon
    # trace reads exactly 0; the driven R2 and R3 are populated
    n = w_run.traces
    assert not n["n_R1"].any()
    assert np.abs(n["n_R2"]).max() > 0.1 and np.abs(n["n_R3"]).max() > 0.1


@pytest.mark.slow
def test_reports_rho0_truncation_loss(bell_experiment, w_run):
    # a driven resonator starts in the coherent state -alpha, |alpha|^2 =
    # n_bar, whose Poisson tail P(n >= dim) the truncation drops
    def tail(n_bar, dim):
        return 1.0 - math.exp(-n_bar) * sum(
            n_bar ** n / math.factorial(n) for n in range(dim))

    bell = bell_experiment["both"].diagnostics["truncation"]
    w = w_run.diagnostics["truncation"]
    assert bell["rho0_dropped_norm"] == pytest.approx(
        {"R1": tail(0.74, 4), "R2": tail(0.60, 4)}, rel=1e-9)
    assert w["rho0_dropped_norm"] == pytest.approx(
        {"R2": tail(1.26, 3), "R3": tail(0.50, 3)}, rel=1e-9)
    assert bell["rho0_dropped_norm"]["R1"] == pytest.approx(7.0e-3, abs=1e-4)
    assert bell["rho0_dropped_norm"]["R2"] == pytest.approx(3.4e-3, abs=1e-4)
    assert w["rho0_dropped_norm"]["R2"] == pytest.approx(0.134, abs=1e-3)


def test_criterion_11_dedicated_vs_shared_resonator():
    g = 140.0
    alpha = [-197.0, -197.0]
    shared = QuadraticForm(np.array([
        [4202.0, -5.0, g],
        [-5.0, 4202.0, g],
        [g, g, 6481.0]]), 2, 1)
    ded = QuadraticForm(np.array([
        [4202.0, -5.0, g, 0.0],
        [-5.0, 4202.0, 0.0, g],
        [g, 0.0, 6481.0, 0.0],
        [0.0, g, 0.0, 6604.0]]), 2, 2)
    d_shared = cooling_matrix(normal_modes(shared),
                              kerr_coefficients(normal_modes(shared), alpha),
                              0, 0.74, chi_kk=-0.75).exact[0, 1]
    d_ded = cooling_matrix(normal_modes(ded),
                           kerr_coefficients(normal_modes(ded), alpha),
                           0, 0.74, chi_kk=-0.75).exact[0, 1]
    ratio = abs(d_shared) / abs(d_ded)
    check("criterion 11", ratio < 1e-10,
          f"shared/dedicated cooling element = {ratio:.2e} (< 1e-10)")


@pytest.mark.slow
def test_criterion_12_sweep_shape():
    cfg = bundled_scenario("bell_single_channel")
    values = [0.05, 0.3, 0.74, 1.5, 3.0]
    sweep = run_sweep(cfg, "n_bar", values)
    assert all(e is None for e in sweep.errors)
    peak = int(np.argmax(sweep.steady_fidelity))
    check("criterion 12a", 0 < peak < len(values) - 1,
          f"fidelity vs photon number peaks at n = {values[peak]} "
          f"(interior); F = {np.round(sweep.steady_fidelity, 4)}")

    # proportionality of the engineered rate must be read in the golden-rule
    # validity regime (fast resonator); at the bench parameters the
    # scattering hybridizes with the resonator and saturates
    res = list(cfg.resonators)
    res[1] = type(res[1])("R2", res[1].omega_r, 32.0, -2.0, None)
    base = cfg.replace(resonators=tuple(res))
    slopes = []
    for nb in (0.1, 0.2, 0.3):
        c = base.replace(raman=(ResonatorDrive(detuning=10.0, n_bar=0.0),
                                ResonatorDrive(detuning=10.0, n_bar=nb)))
        pred = golden_rule_rate(-2.0, 2 ** -0.5, 2 ** -0.5, nb, 32.0,
                                10.0, 10.0).forward
        meas = measure_transfer_rate(c, "S", window=min(14.0, 5.0 / pred))
        slopes.append(meas / nb)
    dev = (max(slopes) - min(slopes)) / np.mean(slopes)
    check("criterion 12b", dev <= 0.10,
          f"rate/photon-number slopes {np.round(slopes, 3)} vary by "
          f"{dev * 100:.1f}% (<= 10%)")
