"""Rotating-frame Hamiltonians and collapse operators for qubit-resonator arrays.

Model conventions (all frequencies configured in linear MHz, built in rad/us):

* Dispersive model: each qubit i sits at detuning ``Delta_i = work_i - omega_p``
  from the common pump frame; resonator i rotates at its own drive frequency.
  The qubit-resonator interaction is the cross-Kerr term
  ``2*chi_i * n_qi * n_ri`` -- the resonator is pulled by twice the configured
  dispersive shift when its qubit is excited, so that a resonator populated
  with ``n`` photons shifts its qubit by ``2*n*chi_i``.
* Qubit pumps enter per their recorded convention: an ``amplitude`` drive
  adds ``Omega b^dag e^{-i w t} + h.c.`` directly, while a ``rabi`` drive is
  quoted as the bare-qubit Rabi frequency and contributes ``Omega/2``.
* Resonator drives use the bare-amplitude convention ``eps (c e^{i w t}+h.c.)``
  so the steady photon number of a damped linear cavity is exactly
  ``eps^2 / (Delta_r^2 + (kappa/2)^2)``.
* ``raman_pull_correction`` retunes each active resonator drive so that the
  engineered scattering lands on resonance for the stabilized eigenstate:
  the effective detuning is ``Delta_r - 2*chi_i*w_i`` with ``w_i`` the weight
  of qubit i in the lowest single-excitation eigenstate.
* The model holds the qubits and only the resonators whose drive is active.
  An undriven resonator starts empty, H conserves its photon number and its
  decay only returns it to vacuum, so leaving it out is exact.
* Each driven resonator is built in the frame displaced by its classical
  steady amplitude ``abar``: the linear drive term disappears in favour of
  ``2*chi (abar D^dag + abar^* D) n_q`` plus the static shift
  ``2*chi*n_bar*n_q``.  This is exactly equivalent to the lab-frame model
  and far less truncation-hungry.  The resonator's frame phase is chosen
  so that ``abar = sqrt(n_bar)`` is real: exp(i phi n_r) commutes with
  every other term and only rephases D, so the photon loss, the photon
  number and the qubits' state are unchanged, and H is real unless a pump
  amplitude is complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rates
from .device import ScenarioConfig, PumpDrive, derive_rates
from .hilbert import (
    QUBIT, RESONATOR, CompositeSpace, ModeSpec, basis_state, ladder_op,
    lowering_op, number_op,
)
from .rates import TWO_PI


@dataclass(frozen=True)
class DrivenResonator:
    """A resonator whose drive is active, as the model holds it."""

    index: int        # position in the configured resonators and drives
    label: str
    detuning: float   # in-model drive detuning, MHz
    n_bar: float
    alpha: float      # steady amplitude: its magnitude sqrt(n_bar), in the
                      # resonator's phase frame


@dataclass
class HamiltonianModel:
    space: CompositeSpace
    H: np.ndarray
    #: the resonators in the model, in mode order after the qubits
    resonators: tuple[DrivenResonator, ...] = ()


# -- spaces and named states --------------------------------------------------

def model_space(config: ScenarioConfig) -> CompositeSpace:
    """The qubits plus every resonator whose drive is active."""
    dim = config.truncations.resonator_dim
    return CompositeSpace(qubit_space(config).modes + tuple(
        ModeSpec(r.label, RESONATOR, dim) for r in driven_resonators(config)))


def qubit_space(config: ScenarioConfig) -> CompositeSpace:
    dim = config.truncations.qubit_dim
    return CompositeSpace(ModeSpec(q.label, QUBIT, dim) for q in config.qubits)


def qubit_excitations(space: CompositeSpace) -> np.ndarray:
    """Total qubit excitation number of every basis state."""
    return space.occupations[:space.n_qubits].sum(axis=0)


def qubit_chain(config: ScenarioConfig) -> np.ndarray:
    """The L x L qubit block: working frequencies on the diagonal, -J
    between neighbours (MHz)."""
    h = np.diag([float(q.working_freq) for q in config.qubits])
    for i, j in enumerate(config.couplings):
        h[i, i + 1] = h[i + 1, i] = -j
    return h


def single_excitation_modes(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (MHz, ascending, absolute) and eigenvectors (columns) of
    the single-excitation block :func:`qubit_chain`."""
    return np.linalg.eigh(qubit_chain(config))


_NAMED_TWO_QUBIT = {
    "T": [((0, 1), 1 / math.sqrt(2)), ((1, 0), 1 / math.sqrt(2))],
    "S": [((0, 1), 1 / math.sqrt(2)), ((1, 0), -1 / math.sqrt(2))],
}

_NAMED_THREE_QUBIT = {
    "W": [((1, 0, 0), 1 / math.sqrt(3)), ((0, 1, 0), 1 / math.sqrt(3)),
          ((0, 0, 1), 1 / math.sqrt(3))],
    "A": [((1, 0, 0), 1 / math.sqrt(2)), ((0, 0, 1), -1 / math.sqrt(2))],
    "B": [((1, 0, 0), 1 / math.sqrt(6)), ((0, 1, 0), -2 / math.sqrt(6)),
          ((0, 0, 1), 1 / math.sqrt(6))],
    "C": [((1, 1, 0), 1 / math.sqrt(6)), ((1, 0, 1), 2 / math.sqrt(6)),
          ((0, 1, 1), 1 / math.sqrt(6))],
    "D": [((1, 1, 0), 1 / math.sqrt(2)), ((0, 1, 1), -1 / math.sqrt(2))],
    "E": [((1, 1, 0), 1 / math.sqrt(3)), ((1, 0, 1), -1 / math.sqrt(3)),
          ((0, 1, 1), 1 / math.sqrt(3))],
}


def named_qubit_state(space: CompositeSpace, name: str) -> np.ndarray:
    """Named qubit-array state on a qubit-only composite space.

    Product states are spelled with g/e letters, and ``"ground"`` is the
    all-g one; the entangled one- and two-excitation eigenstates use their
    conventional letters (T/S for two qubits, W/A/B and C/D/E for three).
    """
    n = space.n_qubits
    if space.n_resonators:
        raise ValueError("named states are defined on qubit-only spaces")
    if name == "ground":
        name = "g" * n
    if len(name) == n and set(name) <= {"g", "e"}:
        return basis_state(space, tuple(1 if ch == "e" else 0 for ch in name))
    terms = {2: _NAMED_TWO_QUBIT, 3: _NAMED_THREE_QUBIT}.get(n, {}).get(name)
    if terms is None:
        raise ValueError(f"unknown named state {name!r} for {n} qubits")
    psi = np.zeros(space.total_dim, dtype=complex)
    for occ, amp in terms:
        psi[space.index(occ)] = amp
    return psi


def lowest_mode_weights(config: ScenarioConfig) -> np.ndarray:
    """Per-qubit weight |v_i|^2 of the lowest single-excitation eigenstate."""
    _, vecs = single_excitation_modes(config)
    return np.abs(vecs[:, 0]) ** 2


# -- drive bookkeeping ---------------------------------------------------------

def driven_resonators(config: ScenarioConfig) -> tuple[DrivenResonator, ...]:
    """Every resonator whose drive is active, in configured order, with its
    in-model detuning and the magnitude of its classical steady amplitude,
    which its phase frame makes real."""
    weights = lowest_mode_weights(config) if config.raman_pull_correction else None
    out = []
    for i, drv in enumerate(config.raman):
        if not drv.active:
            continue
        res = config.resonators[i]
        pull = 2.0 * res.chi * weights[i] if config.raman_pull_correction else 0.0
        det = drv.detuning - pull
        eps = rates.drive_amplitude(drv.n_bar, det, res.kappa)
        # |alpha| of the lab amplitude -eps (det + i kappa/2)/(det^2 +
        # kappa^2/4), which the resonator's phase frame makes real
        alpha = eps / math.hypot(det, res.kappa / 2)
        out.append(DrivenResonator(i, res.label, det, drv.n_bar, alpha))
    return tuple(out)


def _qubit_frame(config: ScenarioConfig) -> float:
    if config.pumps:
        return config.pumps[0].frequency
    return config.qubits[0].working_freq


# -- dispersive model ----------------------------------------------------------

def build_dispersive(config: ScenarioConfig) -> HamiltonianModel:
    """Time-independent dispersive-model Hamiltonian in the drive frames.

    The space is :func:`model_space`: undriven resonators are left out, and
    each driven one is built in the frame displaced by its classical steady
    amplitude.  H = diag(D) + sum (T + T^dag), a dense array: every
    diagonal term (detunings, anharmonicity, cross-Kerr, static Stark
    shift, two-pump manifold shift) is one array D over the occupation
    table, and each T is a coefficient times one
    :func:`~stabsim.hilbert.ladder_op`: the hopping b_i^dag b_i+1, the
    displacement coupling D_r n_q and the pump raising b_i^dag.  Adding
    each T with its conjugate transpose makes H Hermitian by
    construction.  Raises
    ``ValueError`` for more than two pumps, or for two pumps whose
    frequency separation is not at least ten times both pump amplitudes
    (the static two-pump construction is only valid in that regime).
    """
    space = model_space(config)
    L = config.n_qubits
    drives = driven_resonators(config)
    stark = {r.index: r.n_bar for r in drives} if config.ac_stark_compensation else {}
    omega_p = _qubit_frame(config)
    n = space.occupations.astype(float)

    diagonal = []
    for i, q in enumerate(config.qubits):
        bare = q.working_freq
        if i in stark:
            bare -= 2.0 * config.resonators[i].chi * stark[i]
        diagonal += [(TWO_PI * (bare - omega_p)) * n[i],
                     (TWO_PI * q.alpha / 2.0) * (n[i] * (n[i] - 1))]
    # (coefficient, steps, weight) of each ladder term of T
    ladder = [(-TWO_PI * j, {i: 1, i + 1: -1}, None)
              for i, j in enumerate(config.couplings)]
    for mode, r in enumerate(drives, start=L):
        K = TWO_PI * 2.0 * config.resonators[r.index].chi
        n_q, n_r = n[r.index], n[mode]
        diagonal += [(TWO_PI * r.detuning) * n_r, K * (n_q * n_r),
                     (K * r.n_bar) * n_q]
        ladder.append((K * r.alpha, {mode: -1}, n_q))
    pumps, shift = _pump_terms(space, config)

    H = np.diag(sum(diagonal) + shift).astype(complex)
    for coef, steps, weight in ladder + pumps:
        T = coef * ladder_op(space, steps, weight)
        H += T + T.conj().T
    return HamiltonianModel(space, H, drives)


def _pump_terms(space: CompositeSpace, config: ScenarioConfig
                ) -> tuple[list, np.ndarray]:
    """``(terms, shift)``: the pump raising terms b_i^dag as ``(coefficient,
    steps, weight)`` ladder terms, and the diagonal manifold shift (zero but
    for two pumps)."""
    pumps = config.pumps
    if len(pumps) > 2:
        raise ValueError("at most two simultaneous pumps are supported")

    def raising(pump: PumpDrive, weight=None) -> list:
        scale = pump.coefficient_scale
        return [(TWO_PI * amp * scale, {i: 1}, weight)
                for i, amp in enumerate(pump.amplitudes) if amp != 0]

    if len(pumps) < 2:
        return (raising(pumps[0]) if pumps else []), np.zeros(space.total_dim)

    # Two pumps at different frequencies: keep the Hamiltonian static by
    # restricting each pump to the excitation-manifold step it addresses
    # (pump 1: 0->1, pump 2: 1->2) and shifting the n=2 manifold so pump 2
    # is resonant in the common frame.  Valid only when the pumps are far
    # separated compared to their amplitudes.
    p1, p2 = pumps
    sep = abs(p2.frequency - p1.frequency)
    max_amp = max((abs(a) for p in pumps for a in p.amplitudes), default=0.0)
    if sep < 10.0 * max_amp:
        raise ValueError(
            f"two-pump frequency separation {sep:.3f} MHz must be at least "
            f"10x the largest pump amplitude {max_amp:.3f} MHz")

    nq_total = qubit_excitations(space)
    shift = (nq_total >= 2) * (TWO_PI * (p1.frequency - p2.frequency))
    return (raising(p1, (nq_total == 0).astype(float))
            + raising(p2, (nq_total == 1).astype(float))), shift


# -- collapse operators ----------------------------------------------------------

def build_collapse_set(config: ScenarioConfig) -> list[tuple[np.ndarray, float]]:
    """Photon loss on every resonator in the model, relaxation and dephasing
    on every qubit, as ``(operator, rate)`` pairs on :func:`model_space`.

    Rates are 1/us: resonator loss is ``2*pi*kappa`` for a configured
    linewidth in MHz; qubit rates come from :func:`derive_rates`.  Qubits with
    ``t1``/``t2e`` set to ``None`` contribute no corresponding entry.
    """
    space = model_space(config)
    L = config.n_qubits
    entries = [
        (lowering_op(space, mode), TWO_PI * config.resonators[r.index].kappa)
        for mode, r in enumerate(driven_resonators(config), start=L)]
    for i, q in enumerate(config.qubits):
        gamma1, gamma_phi = derive_rates(q, config.dephasing_convention)
        if gamma1 > 0:
            entries.append((lowering_op(space, i), gamma1))
        if gamma_phi > 0:
            entries.append((number_op(space, i), gamma_phi))
    return entries

