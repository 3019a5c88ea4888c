"""Shared test oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from stabsim.effective import TWO_PI, ThreeLevelParams
from stabsim.hilbert import QUBIT, CompositeSpace, ModeSpec
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


def _ketbra(i: int, j: int) -> sp.csr_matrix:
    return sp.csr_matrix(([1.0 + 0j], ([i], [j])), shape=(3, 3))


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
