"""Analytic three-level model of the stabilization loop.

The loop couples a ground state, an intermediate state pumped from the
ground state at Rabi frequency ``omega_p``, and the target state fed from
the intermediate one by the engineered rate ``gamma_s``.  Both excited
states relax to ground at ``gamma1`` and the target scatters back to the
intermediate state at ``gamma_phi``:

    H = (omega_p/2) (|g><i| + |i><g|)
    collapse: |g><t| @ gamma1, |g><i| @ gamma1,
              |t><i| @ gamma_s, |i><t| @ gamma_phi

Basis order is (ground, intermediate, target).  ``omega_p`` is linear MHz;
rates are 1/us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .hamiltonian import CollapseSet
from .hilbert import QUBIT, CompositeSpace, LinearOperator, ModeSpec
from .lindblad import Liouvillian, build_liouvillian, evolve

TWO_PI = 2.0 * math.pi

GROUND, INTERMEDIATE, TARGET = 0, 1, 2


@dataclass(frozen=True)
class ThreeLevelParams:
    omega_p: float      # pump Rabi frequency, MHz
    gamma1: float       # relaxation of both excited states, 1/us
    gamma_phi: float    # target -> intermediate backscatter, 1/us
    gamma_s: float      # engineered intermediate -> target rate, 1/us

    def __post_init__(self):
        if min(self.gamma1, self.gamma_phi, self.gamma_s) < 0:
            raise ValueError("rates must be nonnegative")


def exact_fidelity(p: ThreeLevelParams) -> float:
    """Steady-state target population of the three-level loop, closed form."""
    w = TWO_PI * p.omega_p
    g1, gphi, gs = p.gamma1, p.gamma_phi, p.gamma_s
    denom = (w ** 2 * (2 * g1 + 2 * gphi + gs)
             + g1 ** 3 + 2 * g1 ** 2 * gs + g1 * gs ** 2
             + g1 ** 2 * gphi + g1 * gs * gphi)
    if denom <= 0:
        raise ValueError("degenerate parameters: denominator vanishes")
    return w ** 2 * gs / denom


def approx_fidelity(gamma1: float, gamma_phi: float, gamma_s: float) -> float:
    """Strong-pump limit: in-rate gamma_s/2 against out-rate gamma1+gamma_phi."""
    if gamma_s <= 0:
        raise ValueError("gamma_s must be positive")
    half = gamma_s / 2.0
    return half / ((gamma1 + gamma_phi) + half)


def experiment_estimate(t_s: float, t1_list, t_phi: float) -> float:
    """Back-of-envelope fidelity (G_s - mean(G_1) - G_phi)/G_s from measured
    stabilization, relaxation, and dephasing times (us).  Infinite times are
    allowed and contribute zero rate."""
    if t_s <= 0 or t_phi <= 0 or any(t <= 0 for t in t1_list):
        raise ValueError("times must be positive")
    gs = 1.0 / t_s
    g1 = sum(1.0 / t for t in t1_list) / len(t1_list)
    gphi = 1.0 / t_phi
    return (gs - g1 - gphi) / gs


# -- numerical oracle ---------------------------------------------------------

def three_level_space() -> CompositeSpace:
    return CompositeSpace([ModeSpec("loop", QUBIT, 3)])


def _ketbra(space: CompositeSpace, i: int, j: int) -> LinearOperator:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return LinearOperator(space, m)


def three_level_liouvillian(p: ThreeLevelParams) -> Liouvillian:
    """Lindblad generator of the model, for cross-checking the closed form."""
    space = three_level_space()
    h = np.zeros((3, 3), dtype=complex)
    h[GROUND, INTERMEDIATE] = h[INTERMEDIATE, GROUND] = TWO_PI * p.omega_p / 2.0
    H = LinearOperator(space, h)
    collapse = CollapseSet([
        (_ketbra(space, GROUND, TARGET), p.gamma1),
        (_ketbra(space, GROUND, INTERMEDIATE), p.gamma1),
        (_ketbra(space, TARGET, INTERMEDIATE), p.gamma_s),
        (_ketbra(space, INTERMEDIATE, TARGET), p.gamma_phi),
    ])
    return build_liouvillian(H, collapse)


def simulate_three_level(p: ThreeLevelParams, times: np.ndarray,
                         initial: int | np.ndarray = GROUND) -> dict[str, np.ndarray]:
    """Population traces of the model, keys P_gg / P_S / P_T.

    ``initial`` (a basis index or three populations) is the diagonal state
    at ``times[0]``; the traces come from :func:`~stabsim.lindblad.evolve`,
    so ``times`` must be a uniform increasing grid of at least two points
    (anything else raises its ``ValueError``).
    """
    if isinstance(initial, (int, np.integer)):
        pop0 = np.zeros(3)
        pop0[initial] = 1.0
    else:
        pop0 = np.asarray(initial, dtype=float)
    basis = dict(zip(("P_gg", "P_S", "P_T"), np.eye(3)))
    return evolve(three_level_liouvillian(p), np.diag(pop0), times,
                  observables=basis).observables


@dataclass(frozen=True)
class ThreeLevelFit:
    params: ThreeLevelParams
    residual: float


class FitError(RuntimeError):
    pass


def fit_three_level(result, labels: tuple[str, str, str] = ("P_gg", "P_S", "P_T"),
                    fixed: dict | None = None,
                    initial_guess: ThreeLevelParams | None = None) -> ThreeLevelFit:
    """Least-squares fit of the model rates to population traces.

    ``result`` is an :class:`~stabsim.lindblad.EvolutionResult` (or anything
    with ``times`` and ``observables``) whose observables contain the three
    population traces named by ``labels``.  Entries of ``fixed`` pin
    parameters (e.g. ``{"omega_p": 0.53}``); the rest are fitted with
    nonnegativity bounds.
    """
    times = np.asarray(result.times, dtype=float)
    try:
        traces = np.stack([np.asarray(result.observables[k], dtype=float)
                           for k in labels], axis=1)
    except KeyError as exc:
        raise FitError(f"missing population trace {exc}") from exc
    if len(times) < 5:
        raise FitError("at least 5 samples required")
    fixed = dict(fixed or {})
    names = ["omega_p", "gamma1", "gamma_phi", "gamma_s"]
    free = [n for n in names if n not in fixed]
    if not free:
        raise FitError("nothing to fit: all parameters fixed")
    guess = initial_guess or ThreeLevelParams(
        omega_p=0.5, gamma1=0.05, gamma_phi=0.05, gamma_s=1.0)
    x0 = [getattr(guess, n) for n in free]
    pop0 = traces[0] / max(traces[0].sum(), 1e-12)

    def unpack(x) -> ThreeLevelParams:
        vals = dict(fixed)
        vals.update({n: float(v) for n, v in zip(free, x)})
        return ThreeLevelParams(**vals)

    def residuals(x):
        model = simulate_three_level(unpack(x), times, pop0)
        return (np.stack(list(model.values()), axis=1) - traces).ravel()

    fit = least_squares(residuals, x0, bounds=(0.0, np.inf), xtol=1e-14,
                        ftol=1e-14, gtol=1e-14, max_nfev=2000)
    if not fit.success:
        raise FitError(f"fit did not converge: {fit.message}")
    resid = float(np.sqrt(np.mean(fit.fun ** 2)))
    return ThreeLevelFit(unpack(fit.x), resid)
