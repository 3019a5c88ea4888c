"""Shared test oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from stabsim.effective import TWO_PI, ThreeLevelParams
from stabsim.hamiltonian import CollapseSet
from stabsim.hilbert import QUBIT, CompositeSpace, LinearOperator, ModeSpec
from stabsim.lindblad import Liouvillian, build_liouvillian, unvectorize


def direct_steady_state(liouvillian) -> np.ndarray:
    """Unit-trace kernel of L from one sparse LU solve.

    The trace constraint is added to row 0 with a weight on the scale of
    L's entries: a steady state solves both L x = 0 and tr(x) = 1, hence
    (L + w e_0 tr) x = w e_0.  Affordable only for small d^2.
    """
    L = liouvillian.matrix
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
