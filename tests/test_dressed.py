"""Dressed two-level oracle: the transmon f levels eliminated at second order.

The qubit_dim 3 box model is the reference.  Its qubit block on displaced
resonator vacuum has the same frame, pumps and Stark terms as the qubit-only
qubit_dim 3 Hamiltonian.  Split it into its diagonal E and the rest V, with P
the states with no qubit in f and Q the rest.  The second-order
Schrieffer-Wolff correction (Schrieffer & Wolff, Phys. Rev. 149, 491 (1966))

    dH_ab = 1/2 sum_{k in Q} V_ak V_kb [1/(E_a - E_k) + 1/(E_b - E_k)],

a, b in P, added to the qubit_dim 2 model as dH (x) 1_resonators, gives the
qubit_dim 3 steady fidelity at two-level cost.
"""

from dataclasses import replace

import numpy as np
import pytest

from stabsim.device import bundled_scenario
from stabsim.hamiltonian import build_collapse_set, build_dispersive
from stabsim.lindblad import build_liouvillian, steady_state
from stabsim.scenarios import _target_fidelity, build_problem


def dressing(config) -> np.ndarray:
    """dH on the two-level qubit space, from ``config``'s qubit_dim 3 model."""
    model = build_dispersive(config.replace(
        truncations=replace(config.truncations, qubit_dim=3)))
    occ = model.space.occupations
    n_q = model.space.n_qubits
    vacuum = np.flatnonzero((occ[n_q:] == 0).all(axis=0))
    h = model.H[np.ix_(vacuum, vacuum)]
    qubits = occ[:n_q, vacuum]
    E = np.diag(h).real
    V = h - np.diag(np.diag(h))
    # P keeps the two-level states in their row-major order
    P = np.flatnonzero((qubits < 2).all(axis=0))
    Q = np.flatnonzero((qubits == 2).any(axis=0))
    v_pq, v_qp = V[np.ix_(P, Q)], V[np.ix_(Q, P)]
    inv = 1.0 / np.subtract.outer(E[P], E[Q])
    return 0.5 * ((v_pq * inv) @ v_qp + v_pq @ (v_qp * inv.T))


def steady_fidelity(config, liouv) -> float:
    rho = steady_state(liouv, tol=config.solver.steady_tol).rho
    return _target_fidelity(liouv.space, rho, "T")


@pytest.mark.parametrize("name, tol", [("bell_single_channel", 2e-4),
                                       ("bell", 5e-5)])
def test_dressed_two_level_matches_three_level_box(name, tol):
    cfg = bundled_scenario(name)
    _, box = build_problem(cfg.replace(
        truncations=replace(cfg.truncations, qubit_dim=3)))
    f_box = steady_fidelity(cfg, box)
    model = build_dispersive(cfg)
    collapse = build_collapse_set(cfg)
    dH = dressing(cfg)
    assert np.abs(dH - dH.conj().T).max() <= 1e-12 * np.abs(dH).max()
    resonators = np.eye(model.space.total_dim // dH.shape[0])
    dressed = model.H + np.kron(dH, resonators)
    assert abs(steady_fidelity(
        cfg, build_liouvillian(model.space, dressed, collapse)) - f_box) <= tol
    # the bare two-level model misses the box by far more than that
    assert abs(steady_fidelity(
        cfg, build_liouvillian(model.space, model.H, collapse)) - f_box) > 10 * tol
