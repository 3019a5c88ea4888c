"""End-to-end stabilization scenarios, sweeps, fitting, and report output.

Scenario runs build the displaced-cavity dispersive model of the qubits and
their driven resonators, integrate the master equation over the configured
window, and solve for the steady state.
Qubit-subspace quantities (basis populations, eigenstate populations, target
fidelity) are expectation values of qubit projectors tensored with the
resonator identity, which equals evaluating them on the resonator-traced
state.

A decoherence-free configuration has no unique physical steady state on
experimental timescales: population leaks into effectively dark states
(e.g. the doubly excited qubit state) only through very weak higher-order
processes, so the mathematical kernel of the generator is reached after
~1e4 us and is not what an experiment sees.  For such configs the reported
steady fidelity is the trajectory plateau (tail average of an extended
run), and the method is recorded as ``trajectory_plateau``.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import curve_fit

from .device import (
    ResonatorDrive, PumpDrive, ScenarioConfig, derive_rates,
    scenario_to_jsonable,
)
from .hamiltonian import (
    HamiltonianModel, build_collapse_set, build_dispersive,
    named_qubit_state, qubit_excitations, qubit_space,
    single_excitation_modes,
)
from .hilbert import (
    CompositeSpace, DensityMatrix, LinearOperator, basis_state,
    coherent_state, identity_op, lowering_op, partial_trace,
    product_state,
)
from .lindblad import (
    Liouvillian, build_liouvillian, evolve, evolve_many, steady_state,
)

#: extension of the time window used to read off a plateau when the
#: configuration has no decoherence (us)
PLATEAU_WINDOW = 30.0


class DegenerateDataError(ValueError):
    """Fit input carries no usable signal (e.g. constant trace)."""


class FitError(RuntimeError):
    """A fit did not converge."""


@dataclass(frozen=True)
class ExponentialFit:
    rate: float        # 1/tau, 1/us
    asymptote: float
    amplitude: float
    residual: float

    @property
    def tau(self) -> float:
        return 1.0 / self.rate


def fit_exponential(times, values) -> ExponentialFit:
    """Least-squares fit of a + b exp(-t/tau); returns the rate 1/tau."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 5:
        raise ValueError("at least 5 samples required")
    if np.ptp(values) < 1e-12:
        raise DegenerateDataError("constant trace cannot determine a rate")
    span = times[-1] - times[0]

    def model(t, a, b, tau):
        return a + b * np.exp(-t / tau)

    p0 = (values[-1], values[0] - values[-1], max(span / 5.0, 1e-3))
    try:
        popt, _ = curve_fit(model, times, values, p0=p0, maxfev=20000,
                            bounds=([-np.inf, -np.inf, 1e-6],
                                    [np.inf, np.inf, np.inf]))
    except RuntimeError as exc:
        raise FitError(f"exponential fit did not converge: {exc}") from exc
    a, b, tau = popt
    resid = float(np.sqrt(np.mean((model(times, *popt) - values) ** 2)))
    return ExponentialFit(rate=1.0 / tau, asymptote=float(a),
                          amplitude=float(b), residual=resid)


# -- scenario plumbing -----------------------------------------------------------

def _qubit_projector(full_space: CompositeSpace, qspace: CompositeSpace,
                     psi_q: np.ndarray) -> LinearOperator:
    """|psi><psi| on the qubit factor, identity on resonators."""
    proj = sp.csr_matrix(np.outer(psi_q, psi_q.conj()))
    res_dim = full_space.total_dim // qspace.total_dim
    mat = sp.kron(proj, sp.identity(res_dim, format="csr"), format="csr")
    return LinearOperator(full_space, mat)


def _lab_photon_operator(model: HamiltonianModel, label: str,
                         alpha: complex) -> LinearOperator:
    """Lab-frame photon number of a resonator, from the displaced frame; zero
    for a resonator left out of the model (it stays empty)."""
    space = model.space
    labels = [m.label for m in space.modes]
    if label not in labels:
        return 0.0 * identity_op(space)
    c = lowering_op(space, labels.index(label))
    return (c.dag() @ c + alpha * c.dag() + np.conj(alpha) * c
            + (abs(alpha) ** 2) * identity_op(space))


def _qubit_state_labels(n: int) -> list[str]:
    return ["".join("e" if (idx >> (n - 1 - k)) & 1 else "g" for k in range(n))
            for idx in range(2 ** n)]


def _eigenstate_labels(n: int) -> list[str]:
    return ["T", "S"] if n == 2 else (["W", "A", "B"] if n == 3 else [])


def _initial_qubit_vector(config: ScenarioConfig, qspace: CompositeSpace,
                          initial) -> np.ndarray:
    if initial is None:
        initial = config.initial_state
    if isinstance(initial, str):
        if initial == "ground":
            initial = "g" * config.n_qubits
        return named_qubit_state(qspace, initial)
    occ = tuple(initial)
    return basis_state(qspace, occ)


def initial_density(config: ScenarioConfig, model: HamiltonianModel,
                    initial=None) -> DensityMatrix:
    """Initial state: chosen qubit state, resonators empty in the lab frame.

    In the displaced frame an empty lab resonator is the coherent state at
    minus the classical drive amplitude.
    """
    psi_q = _initial_qubit_vector(config, qubit_space(config), initial)
    space = model.space
    res_space = CompositeSpace(space.modes[space.n_qubits:])
    alphas = {r.label: a for r, a in zip(config.resonators, model.alphas)}
    psi_r = product_state(res_space, [
        coherent_state(mode.dim, -alphas[mode.label])
        for mode in res_space.modes])
    return DensityMatrix.from_state_vector(space, np.kron(psi_q, psi_r))


def _has_qubit_decoherence(config: ScenarioConfig) -> bool:
    for q in config.qubits:
        g1, gphi = derive_rates(q, config.dephasing_convention)
        if g1 > 0 or gphi > 0:
            return True
    return False


def _scenario_observables(config: ScenarioConfig, model: HamiltonianModel,
                          target: str) -> dict:
    qspace = qubit_space(config)
    space = model.space
    obs: dict = {}
    for label in _qubit_state_labels(config.n_qubits):
        obs[f"P_{label}"] = _qubit_projector(space, qspace,
                                             named_qubit_state(qspace, label))
    for label in _eigenstate_labels(config.n_qubits):
        obs[f"P_{label}"] = _qubit_projector(space, qspace,
                                             named_qubit_state(qspace, label))
    obs["F_target"] = _qubit_projector(space, qspace,
                                       named_qubit_state(qspace, target))
    for res, alpha in zip(config.resonators, model.alphas):
        obs[f"n_{res.label}"] = _lab_photon_operator(model, res.label, alpha)
    return obs


@dataclass
class ScenarioReport:
    scenario: str
    target: str
    config: dict
    times: np.ndarray
    traces: dict[str, np.ndarray]
    steady_fidelity: float
    steady_method: str
    steady_residual: float
    fitted_rate: float | None
    fitted_tau: float | None
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.scenario,
            "target": self.target,
            "steady_fidelity": self.steady_fidelity,
            "steady_method": self.steady_method,
            "steady_residual": self.steady_residual,
            "fitted_rate_per_us": self.fitted_rate,
            "fitted_tau_us": self.fitted_tau,
            "diagnostics": self.diagnostics,
            "config": self.config,
        }


def _target_fidelity(rho: DensityMatrix, n_qubits: int, target: str) -> float:
    """<target| rho_q |target> with rho_q the qubit-reduced state."""
    reduced = partial_trace(rho, range(n_qubits))
    psi = named_qubit_state(reduced.space, target)
    return float(np.real(np.vdot(psi, reduced.matrix @ psi)))


def build_problem(config: ScenarioConfig) -> tuple[HamiltonianModel, Liouvillian]:
    """Displaced-frame dispersive model and its Liouvillian.

    The one path from a configuration to a generator: model, collapse set,
    Liouvillian.  The configuration alone decides the space: the qubits and
    the resonators whose drive is active (an undriven resonator stays empty,
    so leaving it out is exact).  With every drive off the model is the
    qubit-only one.  The builders are called through this module's names,
    which the benchmark's traced run wraps to time each layer.
    """
    model = build_dispersive(config)
    return model, build_liouvillian(model.H, build_collapse_set(config))


def _run_scenario(config: ScenarioConfig, target: str, scenario_name: str,
                  initial=None) -> ScenarioReport:
    model, liouv = build_problem(config)
    rho0 = initial_density(config, model, initial)
    obs = _scenario_observables(config, model, target)

    decohering = _has_qubit_decoherence(config)
    t_end = config.t_final if decohering else max(config.t_final, PLATEAU_WINDOW)
    n_pts = int(round(t_end / config.t_step)) + 1
    t_grid = np.linspace(0.0, t_end, n_pts)
    result = evolve(liouv, rho0, t_grid, observables=obs)

    fid = np.real(np.asarray(result.observables["F_target"], dtype=complex))
    if (fid < -1e-9).any() or (fid > 1 + 1e-9).any():
        raise RuntimeError("target fidelity left [0, 1]")

    if decohering:
        steadym = steady_state(liouv, tol=config.solver.steady_tol)
        steady_fid = _target_fidelity(steadym.rho, config.n_qubits, target)
        steady_method = steadym.method
        steady_res = steadym.residual
        iterations = steadym.info["iterations"]
        kernel_gap = steadym.info["kernel_gap"]
    else:
        tail = fid[t_grid >= 0.8 * t_end]
        steady_fid = float(tail.mean())
        steady_method = "trajectory_plateau"
        steady_res = float(np.ptp(tail))
        iterations = kernel_gap = None

    window = t_grid <= config.t_final
    fitted_rate = fitted_tau = None
    try:
        f = fit_exponential(t_grid[window], fid[window])
        fitted_rate, fitted_tau = f.rate, f.tau
    except (DegenerateDataError, FitError):
        pass

    traces = {k: np.real(np.asarray(v, dtype=complex))
              for k, v in result.observables.items()}
    return ScenarioReport(
        scenario=scenario_name,
        target=target,
        config=scenario_to_jsonable(config),
        times=t_grid,
        traces=traces,
        steady_fidelity=steady_fid,
        steady_method=steady_method,
        steady_residual=steady_res,
        fitted_rate=fitted_rate,
        fitted_tau=fitted_tau,
        diagnostics={**result.diagnostics, "steady_state": {
            "method": steady_method, "residual": steady_res,
            "iterations": iterations, "kernel_gap": kernel_gap}},
    )


CHANNEL_CHOICES = ("R1", "R2", "both")
PUMP_CHOICES = ("P1", "P1+P2")


def _select_channels(config: ScenarioConfig, channels: str) -> ScenarioConfig:
    if channels == "both":
        return config
    if channels not in CHANNEL_CHOICES:
        raise ValueError(f"channels must be one of {CHANNEL_CHOICES}")
    keep = int(channels[1:]) - 1
    raman = tuple(
        drv if i == keep else ResonatorDrive(detuning=drv.detuning, n_bar=0.0)
        for i, drv in enumerate(config.raman))
    return config.replace(raman=raman)


def _select_pumps(config: ScenarioConfig, pumps: str) -> ScenarioConfig:
    if pumps == "P1":
        return config.replace(pumps=config.pumps[:1])
    if pumps != "P1+P2":
        raise ValueError(f"pumps must be one of {PUMP_CHOICES}")
    if len(config.pumps) >= 2:
        return config.replace(pumps=config.pumps[:2])
    # synthesize the recovery pump: same amplitude pattern, resonant with the
    # gap between the doubly excited state and the pumped eigenstate
    p1 = config.pumps[0]
    vals, _ = single_excitation_modes(config)
    omega_ee = sum(q.working_freq for q in config.qubits)
    # pumped eigenstate = the one resonant with pump 1
    idx = int(np.argmin(np.abs(vals - p1.frequency)))
    p2 = PumpDrive(p1.amplitudes, omega_ee - vals[idx])
    return config.replace(pumps=(p1, p2))


def run_bell(config: ScenarioConfig, channels: str = "both",
             pumps: str = "P1", initial=None) -> ScenarioReport:
    """Two-qubit stabilization run; target is the symmetric eigenstate T."""
    if config.n_qubits != 2:
        raise ValueError("bell scenario requires a two-qubit config")
    cfg = _select_pumps(_select_channels(config, channels), pumps)
    return _run_scenario(cfg, "T", "bell", initial)


def run_w(config: ScenarioConfig, initial=None) -> ScenarioReport:
    """Three-qubit stabilization run; target is the symmetric eigenstate W."""
    if config.n_qubits != 3:
        raise ValueError("w scenario requires a three-qubit config")
    return _run_scenario(config, "W", "w", initial)


# -- spectroscopy -----------------------------------------------------------------

@dataclass
class SpectroscopyResult:
    frequencies: np.ndarray
    populations: dict[str, np.ndarray]
    total_excitation: np.ndarray
    # the scan's worst integrity values, summed matvecs and propagator
    diagnostics: dict = field(default_factory=dict)


def _probe_liouvillians(config: ScenarioConfig, amps: tuple, freqs
                        ) -> list[Liouvillian]:
    """Qubit-only probe generators, one per pump frequency.

    The model is built once, at ``freqs[0]``.  With a single pump on the
    qubit-only model the pump frequency sets only the frame, so
    H(f) = H(f0) + delta N_q with delta = -2 pi (f - f0) and N_q the total
    qubit number, and L(f) = L(f0) + delta F with F = -i[N_q, .].  N_q is
    diagonal, so F is too: it takes vec(rho)'s entry rho_ab, at a + d b,
    to -i (n_a - n_b).
    """
    if len(freqs) == 0:
        return []
    probe = config.replace(
        pumps=(PumpDrive(amps, float(freqs[0])),),
        raman=tuple(ResonatorDrive(detuning=d.detuning, n_bar=0.0)
                    for d in config.raman))
    model, base = build_problem(probe)
    occ = qubit_excitations(model.space)
    frame = sp.diags(-1j * (occ[None, :] - occ[:, None]).ravel())
    n_q = sp.diags(occ, dtype=float)
    shifts = -2.0 * math.pi * (np.asarray(freqs) - freqs[0])
    return [Liouvillian(base.space, L, LinearOperator(model.space, H),
                        base.collapse)
            for L, H in zip(_shifted(base.matrix, frame, shifts),
                            _shifted(base.hamiltonian.matrix, n_q, shifts))]


def _shifted(base: sp.spmatrix, step: sp.spmatrix, shifts
             ) -> list[sp.csr_matrix]:
    """``base + delta * step`` for each delta, summed on the joint sparsity
    pattern (one array sum each, no sparse arithmetic per delta)."""
    pattern = (abs(base) + abs(step)).tocsr()
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    on_pattern = [np.asarray(m.tocsr()[rows, pattern.indices]).ravel()
                  for m in (base, step)]
    return [sp.csr_matrix((on_pattern[0] + delta * on_pattern[1],
                           pattern.indices.copy(), pattern.indptr.copy()),
                          shape=pattern.shape)
            for delta in shifts]


def run_spectroscopy(config: ScenarioConfig, drive_target: int,
                     freq_range, amplitude: float,
                     duration: float = 4.0) -> SpectroscopyResult:
    """Population response to a weak probe on one qubit, swept in frequency.

    The probe amplitude must stay well under the coupling J so the lines
    remain resolvable.  The probe switches every resonator drive off, so
    the model holds the qubits only.  Populations are time-averaged over the second half of the
    probe window.  All frequencies are propagated together
    (:func:`~stabsim.lindblad.evolve_many`); ``diagnostics`` holds the
    scan's largest ``max_trace_drift`` and ``max_hermiticity_defect``, its
    smallest ``min_eigenvalue`` (None without frequencies), the summed
    ``rhs_evaluations``, and the ``propagator``: the dict every frequency
    used, or one per frequency where they differ.
    """
    j_min = min((j for j in config.couplings.j if j > 0), default=math.inf)
    if amplitude > j_min / 3.0:
        raise ValueError("probe amplitude must be well below the coupling J")
    if not 0 <= drive_target < config.n_qubits:
        raise IndexError("drive target out of range")

    freqs = np.asarray(freq_range, dtype=float)
    labels = _qubit_state_labels(config.n_qubits)
    qspace = qubit_space(config)
    obs = {f"P_{lab}": np.asarray(named_qubit_state(qspace, lab))
           for lab in labels}
    amps = tuple(amplitude if i == drive_target else 0.0
                 for i in range(config.n_qubits))
    rho0 = DensityMatrix.from_state_vector(
        qspace, named_qubit_state(qspace, "g" * config.n_qubits))
    t_grid = np.linspace(0.0, duration, 81)
    sel = t_grid >= duration / 2.0

    liouvs = _probe_liouvillians(config, amps, freqs)
    results = evolve_many(liouvs, rho0, t_grid, observables=obs) if liouvs else []
    pops = {lab: np.array([res.observables[f"P_{lab}"][sel].mean()
                           for res in results]) for lab in labels}
    total = sum(pops[lab] * lab.count("e") for lab in labels)
    return SpectroscopyResult(freqs, pops, np.asarray(total),
                              _scan_diagnostics(results))


def _scan_diagnostics(results) -> dict:
    """One scan's diagnostics from its per-frequency evolution results."""
    diags = [res.diagnostics for res in results]
    props = [dg["propagator"] for dg in diags]
    if props and all(p == props[0] for p in props):
        props = props[0]
    return {
        "max_trace_drift": max((dg["max_trace_drift"] for dg in diags),
                               default=0.0),
        "max_hermiticity_defect": max(
            (dg["max_hermiticity_defect"] for dg in diags), default=0.0),
        "min_eigenvalue": min((dg["min_eigenvalue"] for dg in diags),
                              default=None),
        "rhs_evaluations": sum(dg["rhs_evaluations"] for dg in diags),
        "propagator": props or None,
    }


# -- parameter sweeps ----------------------------------------------------------------

SWEEP_AXES = ("n_bar", "chi", "kappa", "T1", "T_phi")


@dataclass
class SweepResult:
    axis: str
    values: np.ndarray
    steady_fidelity: np.ndarray
    gamma_st: np.ndarray
    # steady-state evidence per point; NaN where the point failed
    steady_residual: np.ndarray
    kernel_gap: np.ndarray
    errors: list[str | None]


def _apply_axis(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    if axis == "n_bar":
        raman = tuple(
            ResonatorDrive(detuning=d.detuning, n_bar=value) if d.active else d
            for d in config.raman)
        return config.replace(raman=raman)
    if axis in ("chi", "kappa"):
        res = tuple(replace(r, **{axis: value}) if config.raman[i].active else r
                    for i, r in enumerate(config.resonators))
        return config.replace(resonators=res)
    if axis in ("T1", "T_phi"):
        key = "t1" if axis == "T1" else "t2e"
        change = {key: None if math.isinf(value) else value}
        return config.replace(qubits=tuple(
            replace(q, **change) for q in config.qubits))
    raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def measure_transfer_rate(config: ScenarioConfig, source: str = "S",
                          window: float = 4.0) -> float:
    """Engineered transfer rate out of ``source``, isolated from decoherence.

    Pumps and qubit decoherence are switched off, the system starts in the
    source eigenstate (resonators in their driven steady field), and the
    source population decay is fitted to an exponential.
    """
    bare = config.replace(
        pumps=(),
        qubits=tuple(replace(q, t1=None, t2e=None) for q in config.qubits))
    model, liouv = build_problem(bare)
    rho0 = initial_density(bare, model, source)
    qspace = qubit_space(bare)
    obs = {"P_src": _qubit_projector(model.space, qspace,
                                     named_qubit_state(qspace, source))}
    t_grid = np.linspace(0.0, window, 121)
    res = evolve(liouv, rho0, t_grid, observables=obs)
    trace = np.real(res.observables["P_src"])
    fit = fit_exponential(t_grid, trace)
    # out-rate at t=0: |dP/dt| / P(0) for P = a + b exp(-rt)
    return abs(fit.rate * fit.amplitude / (fit.asymptote + fit.amplitude))


def _sweep_point(args) -> tuple[float, float, float, float, str | None]:
    """``(fidelity, gamma, steady residual, kernel gap, error)``."""
    config, axis, value = args
    try:
        cfg = _apply_axis(config, axis, value)
        _, liouv = build_problem(cfg)
        steadym = steady_state(liouv, tol=cfg.solver.steady_tol)
        fid = _target_fidelity(steadym.rho, cfg.n_qubits,
                               "T" if cfg.n_qubits == 2 else "W")
        gamma = measure_transfer_rate(cfg)
        return (fid, gamma, steadym.residual, steadym.info["kernel_gap"],
                None)
    except Exception as exc:  # per-point failures recorded, sweep continues
        return (math.nan,) * 4 + (f"{type(exc).__name__}: {exc}",)


def run_sweep(config: ScenarioConfig, axis: str, values,
              workers: int = 1) -> SweepResult:
    """Steady fidelity and engineered rate across one parameter axis.

    Points run independently on immutable configs (optionally in a process
    pool); output rows follow the order of ``values`` regardless of
    completion order.  A failed point records its error and the sweep
    continues.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    values = np.asarray(list(values), dtype=float)
    jobs = [(config, axis, float(v)) for v in values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    fid, gam, res, gap = (np.asarray([r[k] for r in rows]) for k in range(4))
    return SweepResult(axis, values, fid, gam, res, gap, [r[4] for r in rows])


# -- report output ----------------------------------------------------------------

def write_report(report: ScenarioReport, outdir: str | Path) -> Path:
    """Write report.json and traces.csv; returns the output directory."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_jsonable(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "traces.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        names = list(report.traces)
        writer.writerow(["t_us"] + names)
        for i, t in enumerate(report.times):
            writer.writerow([repr(float(t))]
                            + [repr(float(report.traces[n][i])) for n in names])
    return out


def write_sweep(result: SweepResult, outdir: str | Path) -> Path:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    columns = {"steady_fidelity": result.steady_fidelity,
               "gamma_st_per_us": result.gamma_st,
               "steady_residual": result.steady_residual,
               "kernel_gap": result.kernel_gap}
    with open(out / "report.json", "w") as fh:
        json.dump({
            "axis": result.axis,
            "values": [float(v) for v in result.values],
            **{name: [None if math.isnan(v) else float(v) for v in col]
               for name, col in columns.items()},
            "errors": result.errors,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "traces.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([result.axis, *columns, "error"])
        for i, v in enumerate(result.values):
            writer.writerow([repr(float(v))]
                            + [repr(float(col[i])) for col in columns.values()]
                            + [result.errors[i] or ""])
    return out
