"""Shared test oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from stabsim.device import PumpDrive
from stabsim.effective import TWO_PI, ThreeLevelParams
from stabsim.hilbert import QUBIT, CompositeSpace, ModeSpec, lowering_op
from stabsim.lindblad import Liouvillian, build_liouvillian, unvectorize


def scipy_csr(record) -> sp.csr_matrix:
    """The scipy matrix of a :class:`~stabsim.lindblad.CSR` record, sharing
    its arrays."""
    return sp.csr_matrix((record.data, record.indices, record.indptr),
                         shape=record.shape)


def direct_steady_state(liouvillian) -> np.ndarray:
    """Unit-trace kernel of L from one sparse LU solve.

    The trace constraint is added to row 0 with a weight on the scale of
    L's entries: a steady state solves both L x = 0 and tr(x) = 1, hence
    (L + w e_0 tr) x = w e_0.  Affordable only for small d^2.
    """
    L = scipy_csr(liouvillian.matrix)
    d = liouvillian.dim
    n = d * d
    weight = float(np.abs(L.data).mean())
    bump = sp.csr_matrix((np.full(d, weight),
                          (np.zeros(d, dtype=int), np.arange(d) * (d + 1))),
                         shape=(n, n))
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = weight
    rho = unvectorize(spsolve((L + bump).tocsc(), rhs), d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.fixture
def lu_steady_state():
    return direct_steady_state


# -- three-level model ---------------------------------------------------------
#
# The Lindblad generator of the loop whose steady state
# stabsim.effective.exact_fidelity gives in closed form.  Basis order is
# (ground, intermediate, target).

GROUND, INTERMEDIATE, TARGET = 0, 1, 2


def _ketbra(i: int, j: int) -> np.ndarray:
    op = np.zeros((3, 3), dtype=complex)
    op[i, j] = 1.0
    return op


def three_level_liouvillian(p: ThreeLevelParams) -> Liouvillian:
    """Lindblad generator of the model, for cross-checking the closed form."""
    pump = TWO_PI * p.omega_p / 2.0
    H = pump * (_ketbra(GROUND, INTERMEDIATE) + _ketbra(INTERMEDIATE, GROUND))
    collapse = [
        (_ketbra(GROUND, TARGET), p.gamma1),
        (_ketbra(GROUND, INTERMEDIATE), p.gamma1),
        (_ketbra(TARGET, INTERMEDIATE), p.gamma_s),
        (_ketbra(INTERMEDIATE, TARGET), p.gamma_phi),
    ]
    space = CompositeSpace([ModeSpec("loop", QUBIT, 3)])
    return build_liouvillian(space, H, collapse)


# -- closed forms and matrix elements -------------------------------------------


def photon_number(epsilon: float, delta_r: float, kappa: float) -> float:
    """Steady photon number of a driven damped cavity.

    n = eps^2 / (Delta_r^2 + (kappa/2)^2); scale-invariant, so any
    consistent unit works for the three arguments.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return epsilon ** 2 / (delta_r ** 2 + (kappa / 2.0) ** 2)


def stark_shift(n_bar: float, chi: float) -> float:
    """Qubit frequency shift 2*n_bar*chi (MHz) from a populated resonator."""
    return 2.0 * n_bar * chi


def directionality_ratio(gap: float, kappa: float) -> float:
    """Forward/reverse ratio at the optimal detuning: 16 (gap/kappa)^2 + 1."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return 16.0 * (gap / kappa) ** 2 + 1.0


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
            acc += amp * np.vdot(bra, lowering_op(space, i).conj().T @ ket)
    return complex(acc)
