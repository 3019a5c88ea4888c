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
  and far less truncation-hungry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import rates
from .device import ScenarioConfig, PumpDrive, derive_rates
from .hilbert import (
    QUBIT, RESONATOR, CompositeSpace, LinearOperator, ModeSpec,
    basis_state, lowering_op, number_op,
)

TWO_PI = 2.0 * math.pi

HERMITICITY_TOL = 1e-10


@dataclass
class HamiltonianModel:
    H: LinearOperator
    #: classical cavity amplitudes (one per configured resonator; 0 for
    #: undriven ones, which are not in the space)
    alphas: tuple[complex, ...] = ()
    #: effective in-model drive detunings, MHz
    raman_detunings: tuple[float, ...] = ()

    @property
    def space(self) -> CompositeSpace:
        return self.H.space


@dataclass
class CollapseSet:
    """Collapse operators with their rates (1/us)."""

    entries: list[tuple[LinearOperator, float]] = field(default_factory=list)

    def __post_init__(self):
        for _, rate in self.entries:
            if rate < 0:
                raise ValueError("collapse rates must be nonnegative")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# -- spaces and named states --------------------------------------------------

def model_space(config: ScenarioConfig) -> CompositeSpace:
    """The qubits plus every resonator whose drive is active."""
    tr = config.truncations
    return CompositeSpace(qubit_space(config).modes + tuple(
        ModeSpec(config.resonators[i].label, RESONATOR, tr.dim_for_resonator(i))
        for i in _driven_resonators(config)))


def qubit_space(config: ScenarioConfig) -> CompositeSpace:
    dim = config.truncations.qubit_dim
    return CompositeSpace(ModeSpec(q.label, QUBIT, dim) for q in config.qubits)


def _driven_resonators(config: ScenarioConfig) -> list[int]:
    """Indices of the resonators in the model, in mode order."""
    return [i for i, drv in enumerate(config.raman) if drv.active]


def qubit_excitations(space: CompositeSpace) -> np.ndarray:
    """Total qubit excitation number of every basis state."""
    qubits = [i for i, m in enumerate(space.modes) if m.kind == QUBIT]
    occ = np.indices(space.dims).reshape(len(space.modes), -1)
    return occ[qubits].sum(axis=0)


def single_excitation_modes(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (MHz, ascending, absolute) and eigenvectors of the
    single-excitation qubit block at the working bias."""
    L = config.n_qubits
    h = np.zeros((L, L))
    for i, q in enumerate(config.qubits):
        h[i, i] = q.working_freq
    for i, j in enumerate(config.couplings.j):
        h[i, i + 1] = h[i + 1, i] = -j
    vals, vecs = np.linalg.eigh(h)
    # deterministic sign: largest-magnitude component positive
    for k in range(L):
        idx = np.argmax(np.abs(vecs[:, k]))
        if vecs[idx, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return vals, vecs


_NAMED_TWO_QUBIT = {
    "gg": [((0, 0), 1.0)],
    "ge": [((0, 1), 1.0)],
    "eg": [((1, 0), 1.0)],
    "ee": [((1, 1), 1.0)],
    "T": [((0, 1), 1 / math.sqrt(2)), ((1, 0), 1 / math.sqrt(2))],
    "S": [((0, 1), 1 / math.sqrt(2)), ((1, 0), -1 / math.sqrt(2))],
}

_NAMED_THREE_QUBIT = {
    "ggg": [((0, 0, 0), 1.0)],
    "eee": [((1, 1, 1), 1.0)],
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

    Product states are spelled with g/e letters; the entangled
    single-excitation eigenstates use their conventional letters
    (T/S for two qubits, W/A/B and C/D/E for three).
    """
    n = space.n_qubits
    if space.n_resonators:
        raise ValueError("named states are defined on qubit-only spaces")
    table = {2: _NAMED_TWO_QUBIT, 3: _NAMED_THREE_QUBIT}.get(n)
    if table is None or name not in table:
        # fall back to a g/e string of the right length
        if len(name) == n and set(name) <= {"g", "e"}:
            occ = tuple(1 if ch == "e" else 0 for ch in name)
            return basis_state(space, occ)
        raise ValueError(f"unknown named state {name!r} for {n} qubits")
    psi = np.zeros(space.total_dim, dtype=complex)
    for occ, amp in table[name]:
        psi[space.index(occ)] = amp
    return psi


def lowest_mode_weights(config: ScenarioConfig) -> np.ndarray:
    """Per-qubit weight |v_i|^2 of the lowest single-excitation eigenstate."""
    _, vecs = single_excitation_modes(config)
    return np.abs(vecs[:, 0]) ** 2


# -- drive bookkeeping ---------------------------------------------------------

@dataclass(frozen=True)
class _ResolvedDrive:
    active: bool
    detuning_eff: float   # MHz, in-model
    n_bar: float
    alpha: complex        # classical steady amplitude


def _resolve_drives(config: ScenarioConfig) -> list[_ResolvedDrive]:
    weights = lowest_mode_weights(config) if config.raman_pull_correction else None
    out = []
    for i, drv in enumerate(config.raman):
        res = config.resonators[i]
        if not drv.active:
            out.append(_ResolvedDrive(False, drv.detuning, 0.0, 0.0))
            continue
        pull = 2.0 * res.chi * weights[i] if config.raman_pull_correction else 0.0
        det = drv.detuning - pull
        if drv.n_bar is not None:
            eps = rates.drive_amplitude(drv.n_bar, det, res.kappa)
            n_bar = drv.n_bar
        else:
            eps = float(drv.amplitude)
            n_bar = rates.photon_number(eps, det, res.kappa)
        denom = det ** 2 + (res.kappa / 2) ** 2
        alpha = -eps * (det + 1j * res.kappa / 2) / denom
        out.append(_ResolvedDrive(True, det, n_bar, alpha))
    return out


def _qubit_frame(config: ScenarioConfig) -> float:
    if config.pumps:
        return config.pumps[0].frequency
    return config.qubits[0].working_freq


# -- dispersive model ----------------------------------------------------------

def build_dispersive(config: ScenarioConfig) -> HamiltonianModel:
    """Time-independent dispersive-model Hamiltonian in the drive frames.

    The space is :func:`model_space`: undriven resonators are left out, and
    each driven one is built in the frame displaced by its classical steady
    amplitude.  Raises ``ValueError`` for more than two pumps, or for two
    pumps whose frequency separation is not at least ten times both pump
    amplitudes (the static two-pump construction is only valid in that
    regime).
    """
    space = model_space(config)
    L = config.n_qubits
    drives = _resolve_drives(config)
    omega_p = _qubit_frame(config)

    d = space.total_dim
    H = LinearOperator(space, sp.csr_matrix((d, d), dtype=complex))
    b = [lowering_op(space, i) for i in range(L)]
    nq = [number_op(space, i) for i in range(L)]

    for i, q in enumerate(config.qubits):
        bare = q.working_freq
        if config.ac_stark_compensation and drives[i].active:
            bare -= 2.0 * config.resonators[i].chi * drives[i].n_bar
        H = H + (TWO_PI * (bare - omega_p)) * nq[i]
        if space.modes[i].dim > 2 and q.alpha != 0.0:
            bd = b[i].dag()
            H = H + (TWO_PI * q.alpha / 2.0) * (bd @ bd @ b[i] @ b[i])

    for i, j in enumerate(config.couplings.j):
        hop = b[i].dag() @ b[i + 1]
        H = H + (-TWO_PI * j) * (hop + hop.dag())

    for mode, i in enumerate(_driven_resonators(config), start=L):
        c = lowering_op(space, mode)
        nr = c.dag() @ c
        K = TWO_PI * 2.0 * config.resonators[i].chi
        drv = drives[i]
        H = H + (TWO_PI * drv.detuning_eff) * nr + K * (nq[i] @ nr)
        H = H + K * ((drv.alpha * c.dag() + np.conj(drv.alpha) * c) @ nq[i])
        H = H + (K * drv.n_bar) * nq[i]

    H = _add_pumps(H, space, config, omega_p)

    defect = H.hermiticity_defect()
    if defect > HERMITICITY_TOL * max(1.0, _spectral_scale(H)):
        raise ValueError(f"built Hamiltonian is not Hermitian (defect {defect:.2e})")

    return HamiltonianModel(
        H=H, alphas=tuple(drv.alpha for drv in drives),
        raman_detunings=tuple(drv.detuning_eff for drv in drives),
    )


def _spectral_scale(H: LinearOperator) -> float:
    return float(np.abs(H.matrix.data).max()) if H.matrix.nnz else 0.0


def _add_pumps(H: LinearOperator, space: CompositeSpace, config: ScenarioConfig,
               omega_p: float) -> LinearOperator:
    pumps = config.pumps
    if not pumps:
        return H
    if len(pumps) > 2:
        raise ValueError("at most two simultaneous pumps are supported")
    L = config.n_qubits
    b = [lowering_op(space, i) for i in range(L)]

    def pump_op(pump: PumpDrive) -> LinearOperator:
        out = LinearOperator(space, sp.csr_matrix((space.total_dim,) * 2, dtype=complex))
        scale = pump.coefficient_scale
        for i, amp in enumerate(pump.amplitudes):
            if amp != 0:
                out = out + (TWO_PI * amp * scale) * b[i].dag()
        return out

    if len(pumps) == 1:
        op = pump_op(pumps[0])
        return H + op + op.dag()

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
    proj = [sp.diags((nq_total == n).astype(complex), format="csr")
            for n in range(3)]

    def restrict(op: LinearOperator, n_from: int) -> LinearOperator:
        mat = proj[n_from + 1] @ op.matrix @ proj[n_from]
        return LinearOperator(space, mat)

    op1 = restrict(pump_op(p1), 0)
    op2 = restrict(pump_op(p2), 1)
    H = H + op1 + op1.dag() + op2 + op2.dag()
    shift = sp.diags((nq_total >= 2).astype(complex) * TWO_PI
                     * (p1.frequency - p2.frequency), format="csr")
    return H + LinearOperator(space, shift)


# -- collapse operators ----------------------------------------------------------

def build_collapse_set(config: ScenarioConfig) -> CollapseSet:
    """Photon loss on every resonator in the model, relaxation and dephasing
    on every qubit, on :func:`model_space`.

    Rates are 1/us: resonator loss is ``2*pi*kappa`` for a configured
    linewidth in MHz; qubit rates come from :func:`derive_rates`.  Qubits with
    ``t1``/``t2e`` set to ``None`` contribute no corresponding entry.
    """
    space = model_space(config)
    L = config.n_qubits
    entries: list[tuple[LinearOperator, float]] = [
        (lowering_op(space, mode), TWO_PI * config.resonators[i].kappa)
        for mode, i in enumerate(_driven_resonators(config), start=L)]
    for i, q in enumerate(config.qubits):
        gamma1, gamma_phi = derive_rates(q, config.dephasing_convention)
        if gamma1 > 0:
            entries.append((lowering_op(space, i), gamma1))
        if gamma_phi > 0:
            entries.append((number_op(space, i), gamma_phi))
    return CollapseSet(entries)


# -- pump matrix elements ----------------------------------------------------------

def pump_matrix_element(space: CompositeSpace, pump: PumpDrive,
                        bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra| sum_i Omega_i b_i^dag |ket> on a qubit-only space, in MHz."""
    if space.n_resonators:
        raise ValueError("pump matrix elements are defined on qubit-only spaces")
    bra = np.asarray(bra, dtype=complex).ravel()
    ket = np.asarray(ket, dtype=complex).ravel()
    if bra.size != space.total_dim or ket.size != space.total_dim:
        raise ValueError("state vector size does not match space")
    acc = 0.0 + 0.0j
    for i, amp in enumerate(pump.amplitudes):
        if amp != 0:
            acc += amp * np.vdot(bra, lowering_op(space, i).dag().matrix @ ket)
    return complex(acc)
