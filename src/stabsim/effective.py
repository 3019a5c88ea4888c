"""Closed forms of the three-level model of the stabilization loop.

The loop couples a ground state, an intermediate state pumped from the
ground state at Rabi frequency ``omega_p``, and the target state fed from
the intermediate one by the engineered rate ``gamma_s``.  Both excited
states relax to ground at ``gamma1`` and the target scatters back to the
intermediate state at ``gamma_phi``:

    H = (omega_p/2) (|g><i| + |i><g|)
    collapse: |g><t| @ gamma1, |g><i| @ gamma1,
              |t><i| @ gamma_s, |i><t| @ gamma_phi

``omega_p`` is linear MHz; rates are 1/us.  The test suite checks the
closed forms against the steady state of this model's Lindblad generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rates import TWO_PI


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
