"""Shared test oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from stabsim.lindblad import unvectorize


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
