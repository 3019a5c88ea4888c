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
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .device import (
    ResonatorDrive, PumpDrive, ScenarioConfig, derive_rates,
    scenario_to_jsonable, validate_config,
)
from .hamiltonian import (
    HamiltonianModel, build_collapse_set, build_dispersive,
    named_qubit_state, qubit_excitations, qubit_space,
    single_excitation_modes,
)
from .hilbert import (
    CompositeSpace, coherent_state, coherent_tail, lowering_op,
    partial_trace, traced_pairs,
)
from .lindblad import (
    Liouvillian, build_liouvillian, evolve, evolve_shifted, steady_state,
)
from .rates import TWO_PI

#: extension of the time window used to read off a plateau when the
#: configuration has no decoherence (us)
PLATEAU_WINDOW = 30.0
#: exponential fit: least tau (us); the step in log tau that ends it; the
#: step taken even if it raises the cost, as rounding hides a decrease that
#: small; and the step budget
_FIT_MIN_TAU = 1e-6
_FIT_XTOL = 1e-13
_FIT_TRUST_STEP = 1e-6
_FIT_MAX_STEPS = 100
#: fewest samples an exponential fit takes
_FIT_MIN_SAMPLES = 5


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
    """Least-squares fit of a + b exp(-t/tau) with tau >= 1e-6 us; returns
    the rate 1/tau.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): for a fixed tau, a and b are a linear fit, so only u = log tau
    is iterated, from tau = span/5.  A step is -f'/f'' on the projected
    cost f(u), f'' taken from the secant of the last two f' where that is
    positive, else from Gauss-Newton; it moves u by at most 1 and is
    halved while it raises the cost.  A step below 1e-13 ends the fit.
    Raises ``ValueError`` for fewer than 5 samples or a non-finite one,
    :class:`DegenerateDataError` for a constant trace and
    :class:`FitError` after 100 steps (a straight line, whose tau is
    infinite, never ends).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < _FIT_MIN_SAMPLES:
        raise ValueError(f"at least {_FIT_MIN_SAMPLES} samples required")
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("times and values must be finite")
    if np.ptp(values) < 1e-12:
        raise DegenerateDataError("constant trace cannot determine a rate")
    y = values - values.mean()

    def project(u):
        """``(cost, e, ec, b, r)`` at tau = exp(u), ec = e centred: a drops
        out with the centring, and r = y - b ec is orthogonal to 1 and e."""
        e = np.exp(-times * math.exp(-u))
        ec = e - e.mean()
        if not ec.any():  # e is constant: no b, no fit
            return math.inf, e, ec, math.nan, y
        b = (ec @ y) / (ec @ ec)
        r = y - b * ec
        return float(r @ r), e, ec, b, r

    u_min = math.log(_FIT_MIN_TAU)
    u = math.log(max((times[-1] - times[0]) / 5.0, 1e-3))
    cost, e, ec, b, r = project(u)
    last = None  # (u, f') of the previous point
    for _ in range(_FIT_MAX_STEPS):
        # f = |r|^2/2 has f' = r . r' = -b g . r and Gauss-Newton f'' =
        # |r'|^2, where r' = -b P g - (g . r) ec/|ec|^2, g = de/du = e t/tau
        # (centred) and P projects off 1 and e
        g = e * times * math.exp(-u)
        g -= g.mean()
        gr, ee = g @ r, ec @ ec
        pg = g - (ec @ g / ee) * ec
        grad = -b * gr
        curv = b * b * (pg @ pg) + gr * gr / ee
        secant = (grad - last[1]) / (u - last[0]) if last else 0.0
        step = -grad / (secant if secant > 0 else curv) if grad else 0.0
        if not math.isfinite(step):
            break
        new = max(u + min(max(step, -1.0), 1.0), u_min)
        if abs(new - u) <= _FIT_XTOL:
            a = values.mean() - b * e.mean()
            return ExponentialFit(rate=math.exp(-u), asymptote=float(a),
                                  amplitude=float(b),
                                  residual=math.sqrt(cost / times.size))
        trial = project(new)
        while trial[0] > cost and abs(new - u) > _FIT_TRUST_STEP:
            new = u + 0.5 * (new - u)
            trial = project(new)
        last = (u, grad)
        u, (cost, e, ec, b, r) = new, trial
    raise FitError(f"exponential fit did not converge (tau = "
                   f"{math.exp(u):.4g} us)")


# -- scenario plumbing -----------------------------------------------------------

def _qubit_projector(space: CompositeSpace, psi_q: np.ndarray) -> np.ndarray:
    """|psi><psi| (x) 1_res: the adjoint of the qubits' partial trace."""
    pairs, kept = traced_pairs(space, tuple(range(space.n_qubits)))
    out = np.zeros((space.total_dim,) * 2, dtype=complex)
    np.put(out, pairs, np.outer(psi_q, psi_q.conj()).take(kept))
    return out


def _lab_photon_operator(space: CompositeSpace, mode: int,
                         alpha: float) -> np.ndarray:
    """Lab-frame photon number c^dag c + alpha (c + c^dag) + alpha^2 of the
    resonator at ``mode``, from the frame displaced by its real classical
    steady amplitude ``alpha``.  The nonzero entries of c lie in distinct
    rows and columns, so c^dag c is diagonal: the column sums of |c|^2."""
    c = lowering_op(space, mode)
    return (np.diag((abs(c) ** 2).sum(axis=0)) + alpha * (c + c.conj().T)
            + alpha ** 2 * np.eye(space.total_dim))


def _qubit_state_labels(n: int) -> list[str]:
    return ["".join("e" if (idx >> (n - 1 - k)) & 1 else "g" for k in range(n))
            for idx in range(2 ** n)]


def _eigenstate_labels(n: int) -> list[str]:
    return ["T", "S"] if n == 2 else (["W", "A", "B"] if n == 3 else [])


def initial_density(config: ScenarioConfig, model: HamiltonianModel,
                    initial: str | None = None) -> np.ndarray:
    """Initial density matrix on ``model.space``: the named qubit state
    (``initial``, else the configured one), resonators empty in the lab
    frame.

    In the displaced frame an empty lab resonator is the coherent state at
    minus the classical drive amplitude.
    """
    qspace, occ = qubit_space(config), model.space.occupations
    dim, n = config.truncations.resonator_dim, config.n_qubits
    psi = np.ones(model.space.total_dim, dtype=complex)
    for mode, r in enumerate(model.resonators, start=n):
        psi *= coherent_state(dim, -r.alpha)[occ[mode]]
    name = config.initial_state if initial is None else initial
    psi *= named_qubit_state(qspace, name)[qspace.index(occ[:n])]
    return np.outer(psi, psi.conj())


def _has_qubit_decoherence(config: ScenarioConfig) -> bool:
    for q in config.qubits:
        g1, gphi = derive_rates(q, config.dephasing_convention)
        if g1 > 0 or gphi > 0:
            return True
    return False


def _scenario_observables(config: ScenarioConfig, model: HamiltonianModel,
                          target: str) -> dict:
    qspace, space, n = qubit_space(config), model.space, config.n_qubits

    def projector(label: str) -> np.ndarray:
        return _qubit_projector(space, named_qubit_state(qspace, label))

    obs = {f"P_{label}": projector(label)
           for label in _qubit_state_labels(n) + _eigenstate_labels(n)}
    obs["F_target"] = projector(target)
    # an undriven resonator is not in the model and stays empty
    photons = dict.fromkeys((r.label for r in config.resonators),
                            np.zeros((space.total_dim,) * 2))
    for mode, r in enumerate(model.resonators, start=n):
        photons[r.label] = _lab_photon_operator(space, mode, r.alpha)
    obs.update((f"n_{label}", op) for label, op in photons.items())
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


def _target_fidelity(space: CompositeSpace, rho: np.ndarray, target: str
                     ) -> float:
    """<target| rho_q |target> with rho_q the qubit-reduced state of the
    density matrix ``rho`` on ``space``."""
    n = space.n_qubits
    reduced = partial_trace(space, rho, range(n))
    psi = named_qubit_state(CompositeSpace(space.modes[:n]), target)
    return float(np.real(np.vdot(psi, reduced @ psi)))


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
    return model, build_liouvillian(model.space, model.H,
                                    build_collapse_set(config))


def _run_scenario(config: ScenarioConfig, target: str, scenario_name: str,
                  initial=None) -> ScenarioReport:
    decohering = _has_qubit_decoherence(config)
    t_end = config.t_final if decohering else max(config.t_final, PLATEAU_WINDOW)
    steps = t_end / config.t_step
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"t_step {config.t_step} us does not divide the "
                         f"{t_end} us window into whole steps")
    t_grid = np.linspace(0.0, t_end, int(round(steps)) + 1)
    window = t_grid <= config.t_final
    if window.sum() < _FIT_MIN_SAMPLES:
        raise ValueError(
            f"t_final {config.t_final} us holds {window.sum()} grid points "
            f"of t_step {config.t_step} us; the rate fit needs at least "
            f"{_FIT_MIN_SAMPLES}")

    model, liouv = build_problem(config)
    rho0 = initial_density(config, model, initial)
    obs = _scenario_observables(config, model, target)
    result = evolve(liouv, rho0, t_grid, observables=obs)

    fid = np.real(np.asarray(result.observables["F_target"], dtype=complex))
    if (fid < -1e-9).any() or (fid > 1 + 1e-9).any():
        raise RuntimeError("target fidelity left [0, 1]")

    if decohering:
        steadym = steady_state(liouv, tol=config.solver.steady_tol)
        steady_fid = _target_fidelity(liouv.space, steadym.rho, target)
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

    fitted_rate = fitted_tau = asymptote = None
    try:
        f = fit_exponential(t_grid[window], fid[window])
        fitted_rate, fitted_tau, asymptote = f.rate, f.tau, f.asymptote
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
            "iterations": iterations, "kernel_gap": kernel_gap},
            # how far the fitted window ends from the steady state
            "final_minus_steady_fidelity": float(fid[window][-1]) - steady_fid,
            "fit_asymptote_minus_steady_fidelity":
                None if asymptote is None else asymptote - steady_fid,
            "fit_window_us": [float(t_grid[0]), float(t_grid[window][-1])],
            "truncation": {"rho0_dropped_norm": {
                r.label: coherent_tail(config.truncations.resonator_dim, r.alpha)
                for r in model.resonators}}},
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
    if not config.pumps:
        raise ValueError("pumps P1+P2 needs pump 1, and the configuration "
                         "has no pump")
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


def _probe_family(config: ScenarioConfig, amps: tuple, freqs
                  ) -> tuple[Liouvillian, np.ndarray, np.ndarray]:
    """``(L0, n_q, shifts)``: the qubit-only probe generator at ``freqs[0]``,
    the total qubit number of each basis state and each frequency's shift.

    With a single pump on the qubit-only model the pump frequency sets only
    the frame, so H(f) = H(f0) + delta N_q with delta = -2 pi (f - f0) and
    N_q = diag(n_q) (see :func:`~stabsim.lindblad.evolve_shifted`).
    """
    probe = config.replace(
        pumps=(PumpDrive(amps, float(freqs[0])),),
        raman=tuple(ResonatorDrive(detuning=d.detuning, n_bar=0.0)
                    for d in config.raman))
    model, base = build_problem(probe)
    shifts = -TWO_PI * (np.asarray(freqs) - freqs[0])
    return base, qubit_excitations(model.space), shifts


def run_spectroscopy(config: ScenarioConfig, drive_target: int,
                     freq_range, amplitude: float,
                     duration: float = 4.0) -> SpectroscopyResult:
    """Population response to a weak probe on one qubit, swept in frequency.

    The probe amplitude must stay well under the coupling J so the lines
    remain resolvable.  The probe switches every resonator drive off, so
    the model holds the qubits only.  Populations are time-averaged over
    the second half of the probe window.  All frequencies are propagated
    together, as frame shifts of one generator
    (:func:`~stabsim.lindblad.evolve_shifted`), whose family diagnostics
    are the scan's ``diagnostics``; without frequencies they read zero
    drift, defect and ``rhs_evaluations`` and None for ``min_eigenvalue``
    and ``propagator``.  Raises ``ValueError`` for non-finite frequencies,
    naming their rows and values, for a non-finite or zero amplitude, for
    a ``drive_target`` that is not an integer index and for a ``duration``
    that is not positive and finite, before any build; a probe that
    drives nothing would read an all-ground scan.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"probe duration must be positive and finite, "
                         f"got {duration}")
    if not np.isfinite(amplitude):
        raise ValueError(f"probe amplitude must be finite, got {amplitude}")
    if amplitude == 0:
        raise ValueError("probe amplitude must be nonzero")
    j_min = min((j for j in config.couplings if j > 0), default=math.inf)
    if abs(amplitude) > j_min / 3.0:
        raise ValueError("probe amplitude must be well below the coupling J")
    try:
        target = operator.index(drive_target)
    except TypeError:
        raise ValueError(f"drive target must be an integer qubit index, "
                         f"got {drive_target!r}") from None
    if not 0 <= target < config.n_qubits:
        raise IndexError("drive target out of range")

    freqs = np.asarray(freq_range, dtype=float)
    if not np.isfinite(freqs).all():
        bad = np.flatnonzero(~np.isfinite(freqs)).tolist()
        raise ValueError(f"probe frequencies must be finite: rows {bad} are "
                         f"{freqs[bad].tolist()}")
    labels = _qubit_state_labels(config.n_qubits)
    qspace = qubit_space(config)
    obs = {lab: np.asarray(named_qubit_state(qspace, lab)) for lab in labels}
    amps = tuple(amplitude if i == target else 0.0
                 for i in range(config.n_qubits))
    ground = named_qubit_state(qspace, "ground")
    rho0 = np.outer(ground, ground.conj())
    t_grid = np.linspace(0.0, duration, 81)
    sel = t_grid >= duration / 2.0

    if len(freqs):
        scan = evolve_shifted(*_probe_family(config, amps, freqs), rho0,
                              t_grid, observables=obs)
        traces, diagnostics = scan.observables, scan.diagnostics
    else:
        traces = dict.fromkeys(obs, np.empty((0, len(t_grid))))
        diagnostics = {"max_trace_drift": 0.0, "max_hermiticity_defect": 0.0,
                       "min_eigenvalue": None, "rhs_evaluations": 0,
                       "propagator": None}
    pops = {lab: traces[lab][:, sel].mean(axis=1) for lab in labels}
    total = sum(pops[lab] * lab.count("e") for lab in labels)
    return SpectroscopyResult(freqs, pops, np.asarray(total), diagnostics)


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
    obs = {"P_src": _qubit_projector(model.space,
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
        validate_config(cfg)
        _, liouv = build_problem(cfg)
        steadym = steady_state(liouv, tol=cfg.solver.steady_tol)
        fid = _target_fidelity(liouv.space, steadym.rho, "T")
        gamma = measure_transfer_rate(cfg)
        return (fid, gamma, steadym.residual, steadym.info["kernel_gap"],
                None)
    except Exception as exc:  # per-point failures recorded, sweep continues
        return (math.nan,) * 4 + (f"{type(exc).__name__}: {exc}",)


def run_sweep(config: ScenarioConfig, axis: str, values,
              workers: int = 1) -> SweepResult:
    """Steady fidelity and engineered rate across one parameter axis.

    Two-qubit configs only: the fidelity is that of T and the rate is the
    S -> T transfer rate.  Points run independently on immutable configs
    (optionally in a process pool); output rows follow the order of
    ``values`` regardless of completion order.  Each point's config is
    checked as a loaded scenario is (:func:`~stabsim.device.validate_config`).
    A failed point, a refused config included, records its error and the
    sweep continues.  Raises ``ValueError`` for a NaN value, or an infinite
    one on an axis other than ``T1`` and ``T_phi`` (where inf means no
    channel), naming its rows and values, and for ``workers`` below 1.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if config.n_qubits != 2:
        raise ValueError(f"sweeps need a two-qubit config (target T, rate "
                         f"S -> T), got {config.n_qubits} qubits")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    values = np.asarray(list(values), dtype=float)
    # inf means "no channel" on the coherence-time axes alone
    inf_ok = axis in ("T1", "T_phi")
    bad = np.flatnonzero(np.isnan(values) if inf_ok
                         else ~np.isfinite(values)).tolist()
    if bad:
        raise ValueError(f"{axis} values must be finite"
                         f"{' or inf' if inf_ok else ''}: rows {bad} are "
                         f"{values[bad].tolist()}")
    jobs = [(config, axis, float(v)) for v in values]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    fid, gam, res, gap = (np.asarray([r[k] for r in rows]) for k in range(4))
    return SweepResult(axis, values, fid, gam, res, gap, [r[4] for r in rows])


# -- report output ----------------------------------------------------------------

def _write_run(outdir: str | Path, summary: dict, columns: dict,
               summary_name: str = "report.json") -> Path:
    """Write ``summary`` as sorted-key JSON to ``summary_name`` and
    ``columns`` (header -> equal-length values) as traces.csv, numbers as
    ``repr(float(v))`` and strings as they are; returns the directory."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / summary_name).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    cells = ([v if isinstance(v, str) else repr(float(v)) for v in col]
             for col in columns.values())
    with open(out / "traces.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([list(columns), *zip(*cells, strict=True)])
    return out


def write_report(report: ScenarioReport, outdir: str | Path) -> Path:
    """Write report.json and traces.csv; returns the output directory."""
    return _write_run(outdir, report.to_jsonable(),
                      {"t_us": report.times, **report.traces})


def write_sweep(result: SweepResult, outdir: str | Path) -> Path:
    """Write report.json (NaN as null) and traces.csv, one row per value."""
    columns = {"steady_fidelity": result.steady_fidelity,
               "gamma_st_per_us": result.gamma_st,
               "steady_residual": result.steady_residual,
               "kernel_gap": result.kernel_gap}
    summary = {"axis": result.axis, "errors": result.errors,
               "values": [float(v) for v in result.values],
               **{name: [None if math.isnan(v) else float(v) for v in col]
                  for name, col in columns.items()}}
    return _write_run(outdir, summary, {
        result.axis: result.values, **columns,
        "error": [e or "" for e in result.errors]})


def write_spectroscopy(result: SpectroscopyResult, outdir: str | Path) -> Path:
    """Write diagnostics.json and traces.csv, one row per probe frequency."""
    return _write_run(outdir, result.diagnostics, {
        "freq_mhz": result.frequencies, **result.populations,
        "total_excitation": result.total_excitation}, "diagnostics.json")
