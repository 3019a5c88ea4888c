"""Normal-mode analysis of the quadratic array model and derived Kerr tensors.

The quadratic Hamiltonian of L qubits and R resonators is represented by a
real symmetric (L+R) x (L+R) matrix in the bare-mode basis
(b_1..b_L, c_1..c_R); its orthogonal eigenbasis gives the dressed modes.
Anharmonicity then produces self- and cross-Kerr tensors, and a driven
resonator produces the cooling matrix that scatters dressed qubit modes
into each other while emitting a resonator photon.

Frequencies are linear MHz throughout; the matrix may be written in any
common rotating frame (a constant diagonal offset only shifts eigenvalues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import ScenarioConfig, derive_g
from .hamiltonian import qubit_chain

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class QuadraticForm:
    """Real symmetric matrix of the quadratic model, bare-mode basis."""

    matrix: np.ndarray
    n_qubits: int
    n_resonators: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        n = self.n_qubits + self.n_resonators
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} modes")
        if np.abs(m - m.T).max() > SYMMETRY_TOL * max(1.0, np.abs(m).max()):
            raise ValueError("quadratic form must be symmetric")


@dataclass(frozen=True)
class NormalModeBasis:
    """Orthogonal eigenbasis of a :class:`QuadraticForm`.

    ``m`` holds eigenvectors as columns, eigenvalues ascending, each column
    sign-fixed so its largest-magnitude component is positive.  Columns are
    classified by the bare mode carrying their dominant weight; dressed
    resonator columns are listed in ``resonator_columns`` indexed by the bare
    resonator they descend from.
    """

    m: np.ndarray
    eigenvalues: np.ndarray
    qubit_columns: tuple[int, ...]
    resonator_columns: tuple[int, ...]
    n_qubits: int
    n_resonators: int

    @property
    def lambda_q(self) -> np.ndarray:
        """Qubit-like eigenfrequencies, ascending (MHz)."""
        return self.eigenvalues[list(self.qubit_columns)]


@dataclass(frozen=True)
class KerrCoefficients:
    """Fourth-order tensors from the anharmonicity, dressed basis (MHz).

    ``mu[s,u,l,p]``: qubit-like self-Kerr; ``xi``: resonator-like self-Kerr;
    ``eta[s,u,l,p]``: cross-Kerr with s,u dressed-resonator and l,p
    dressed-qubit indices.
    """

    mu: np.ndarray
    xi: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True)
class CoolingMatrix:
    """Scattering matrix of the drive-activated cooling operator (MHz).

    ``exact[l, p]`` couples dressed qubit modes p -> l while creating a
    photon in resonator ``k``; ``approx`` is the dedicated-resonator
    approximation ``2 sqrt(n_bar) chi_kk M_kl M_kp``.  ``kappa_ratio`` is
    kappa / max|exact|; the adiabatic-elimination treatment that produced
    this operator assumes the resonator decay dominates, which we flag as
    requiring kappa >= 5 max|d|.
    """

    resonator: int
    exact: np.ndarray
    approx: np.ndarray
    kappa_ratio: float | None = None

    @property
    def within_adiabatic_validity(self) -> bool | None:
        if self.kappa_ratio is None:
            return None
        return self.kappa_ratio >= 5.0


def build_quadratic_form(config: ScenarioConfig) -> QuadraticForm:
    """Dedicated-resonator layout: qubit chain plus one resonator per qubit."""
    L = config.n_qubits
    m = np.zeros((2 * L, 2 * L))
    m[:L, :L] = qubit_chain(config)
    for i, res in enumerate(config.resonators):
        m[L + i, L + i] = res.omega_r
        g = derive_g(res, config.qubits[i])
        m[i, L + i] = m[L + i, i] = g
    return QuadraticForm(m, L, L)


def normal_modes(form: QuadraticForm) -> NormalModeBasis:
    """Sorted, sign-fixed eigenbasis with qubit/resonator classification.

    Raises ``ValueError`` when the dominant-weight classification is
    ambiguous: a wrong count of qubit-like columns, or two dressed-resonator
    columns descending from the same bare resonator.  Either signals a
    regime where the dispersive identification breaks down.
    """
    vals, vecs = np.linalg.eigh(form.matrix)
    for k in range(vecs.shape[1]):
        idx = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[idx, k] < 0:
            vecs[:, k] = -vecs[:, k]
    nq = form.n_qubits
    qubit_cols, res_claims = [], {}
    for k in range(vecs.shape[1]):
        dom = int(np.argmax(np.abs(vecs[:, k])))
        if dom < nq:
            qubit_cols.append(k)
        else:
            bare = dom - nq
            if bare in res_claims:
                raise ValueError(
                    f"degenerate classification: columns {res_claims[bare]} and "
                    f"{k} both descend from bare resonator {bare}")
            res_claims[bare] = k
    if len(qubit_cols) != nq or len(res_claims) != form.n_resonators:
        raise ValueError(
            f"degenerate classification: found {len(qubit_cols)} qubit-like "
            f"columns for {nq} qubits")
    res_cols = tuple(res_claims[i] for i in range(form.n_resonators))
    return NormalModeBasis(vecs, vals, tuple(qubit_cols), res_cols,
                           form.n_qubits, form.n_resonators)


def kerr_coefficients(basis: NormalModeBasis, alphas) -> KerrCoefficients:
    """Kerr tensors by direct summation over the qubit anharmonicities."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size != basis.n_qubits:
        raise ValueError("one anharmonicity per qubit required")
    rows = np.arange(basis.n_qubits)
    mq = basis.m[np.ix_(rows, list(basis.qubit_columns))]
    mr = basis.m[np.ix_(rows, list(basis.resonator_columns))]
    mu = np.einsum("i,is,iu,il,ip->sulp", alphas, mq, mq, mq, mq)
    xi = np.einsum("i,is,iu,il,ip->sulp", alphas, mr, mr, mr, mr)
    eta = np.einsum("i,is,iu,il,ip->sulp", alphas, mr, mr, mq, mq)
    return KerrCoefficients(mu, xi, eta)


def cooling_matrix(basis: NormalModeBasis, kerr: KerrCoefficients, k: int,
                   n_bar: float, chi_kk: float | None = None,
                   alphas=None, kappa: float | None = None) -> CoolingMatrix:
    """Cooling matrix of resonator ``k`` under a drive holding ``n_bar`` photons.

    ``exact`` uses the cross-Kerr tensor: d_lp = 2 sqrt(n_bar) eta[k,k,l,p],
    sqrt(n_bar) the classical resonator amplitude.
    ``approx`` uses the dedicated-resonator shortcut
    2 sqrt(n_bar) chi_kk M_kl M_kp.  Pass the dispersive shift ``chi_kk``
    explicitly (e.g. a measured value), or pass the qubit anharmonicities
    ``alphas`` to use chi_kk = alpha_k * M_{k,(k)}^2.
    """
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if not 0 <= k < basis.n_resonators:
        raise IndexError(f"resonator index {k} out of range")
    exact = 2.0 * math.sqrt(n_bar) * kerr.eta[k, k, :, :]
    rows = np.arange(basis.n_qubits)
    mq = basis.m[np.ix_(rows, list(basis.qubit_columns))]
    if chi_kk is None:
        if alphas is None:
            raise ValueError("give chi_kk or alphas for the approximate matrix")
        overlap = basis.m[k, basis.resonator_columns[k]]
        chi_kk = float(alphas[k]) * overlap ** 2
    approx = 2.0 * math.sqrt(n_bar) * chi_kk * np.outer(mq[k, :], mq[k, :])
    ratio = None
    if kappa is not None:
        dmax = float(np.abs(exact).max())
        ratio = math.inf if dmax == 0 else kappa / dmax
    return CoolingMatrix(k, np.asarray(exact, dtype=complex),
                         np.asarray(approx, dtype=complex), ratio)
