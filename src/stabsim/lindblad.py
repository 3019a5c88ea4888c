"""Lindblad master-equation evolution and steady states.

The master equation  drho/dt = -i[H, rho] + sum_k r_k D(L_k) rho  with
D(L) rho = (2 L rho L^dag - L^dag L rho - rho L^dag L)/2  is vectorized by
column stacking: vec(rho) = rho.reshape(-1, order="F"), for which
vec(A rho B) = (B^T kron A) vec(rho).  The resulting sparse matrix acts on
vectors of length d^2.

Time evolution is exact propagation on a uniform time grid.  Small spaces
(d^2 <= 1024) apply the dense one-step propagator expm(L dt); larger ones
run a Chebyshev expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)) of the real matrix A that L is in an orthonormal Hermitian basis.
W(A) lies in a box of half-height R (the spread of H plus J = sum r_k
||O_k||_2^2) and real extent set by the damping and J.  With the Bernstein
ellipse rho around it and the Crouzeix-Palencia constant 1 + sqrt 2 (SIAM
J. Matrix Anal. Appl. 38, 649 (2017)), K terms err by at most
(1 + sqrt 2) 2 sum_{k>=K} |J_k(R dt)| rho^k: K is the least count making
this < 1e-14 with no term > 1e14 (beyond double precision); else a step
is split into the m substeps that minimize m K.  Trace, hermiticity and
positivity are monitored at every stored point, never enforced.

The steady state is one matrix-free solve: the no-jump (Sylvester) part of
L is inverted from one eigendecomposition of the effective Hamiltonian
(Bartels & Stewart, Commun. ACM 15, 820 (1972)) and preconditions
restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856
(1986)); an Arnoldi run on the same operator checks that the kernel is
unique.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator as ScipyLinearOperator
from scipy.sparse.linalg import eigs, gmres
from scipy.special import jv

from .hamiltonian import CollapseSet
from .hilbert import CompositeSpace, DensityMatrix, LinearOperator

SYLVESTER_GMRES = "sylvester_gmres"

#: positivity violation that aborts an evolution
POSITIVITY_ABORT = 1e-6
#: largest d^2 propagated with a dense expm(L dt); its 16 MB bounds memory
_DENSE_PROPAGATOR_MAX = 1024
#: Chebyshev propagation: bound on the truncation error of one substep
_CHEBYSHEV_TOL = 1e-14
#: refused anti-Hermitian part of rho0 and of L, relative to the largest entry
_HERMITIAN_RTOL = 1e-12
#: steady-state shift sigma as a fraction of the mean damping
#: tr(sum r_k O_k^dag O_k)/d
_SHIFT_FRACTION = 0.01
#: largest condition number of Heff's eigenvectors accepted for S^-1
_MAX_EIGVEC_COND = 1e6
#: kernel gap 1 - |mu_2| below which the steady state is not unique; the
#: smallest measured gap of a bundled scenario (decoherence-free
#: bell_single_channel) is ~1.5e-4, a degenerate kernel reads ~1e-16
_MIN_KERNEL_GAP = 1e-8
#: GMRES: relative target of the preconditioned residual, Krylov
#: dimension per restart, and number of restarts
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 50
_GMRES_MAXITER = 4


class EvolutionError(RuntimeError):
    """Integration failure; carries the diagnostics collected so far."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SteadyStateError(RuntimeError):
    """Steady-state solve failed to converge or is not unique."""


@dataclass
class Liouvillian:
    """Sparse superoperator for one Hamiltonian and collapse set."""

    space: CompositeSpace
    matrix: sp.csr_matrix
    hamiltonian: LinearOperator
    collapse: CollapseSet

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def shifted(self, dH: LinearOperator) -> "Liouvillian":
        """Generator of ``H + dH`` with the same collapse set.

        The dissipators do not depend on H, so only -i[dH, .] is added.
        """
        return Liouvillian(self.space,
                           (self.matrix + _no_jump_superop(dH.matrix)).tocsr(),
                           self.hamiltonian + dH, self.collapse)


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d, order="F")


def _damping(collapse: CollapseSet, space: CompositeSpace) -> sp.csr_matrix:
    """sum_k r_k O_k^dag O_k, formed as A^dag W A with A the O_k stacked
    and W their rates on the diagonal (one sparse product, not one per
    operator)."""
    d = space.total_dim
    if any(op.space != space for op, _ in collapse):
        raise ValueError("collapse operator lives on a different space")
    if not len(collapse):
        return sp.csr_matrix((d, d), dtype=complex)
    A = sp.vstack([op.matrix for op, _ in collapse], format="csr")
    W = sp.diags(np.repeat([rate for _, rate in collapse], d))
    return (A.conj().T @ (W @ A)).tocsr()


def _no_jump_superop(heff: sp.spmatrix) -> sp.csr_matrix:
    """Vectorized rho -> -i(Heff rho - rho Heff^dag); for a Hermitian
    argument this is the commutator -i[H, .]."""
    ident = sp.identity(heff.shape[0], format="csr", dtype=complex)
    return -1j * (sp.kron(ident, heff, format="csr")
                  - sp.kron(heff.conj(), ident, format="csr"))


def build_liouvillian(H: LinearOperator, collapse: CollapseSet) -> Liouvillian:
    """Vectorized generator -i[H, .] + sum rate * D(L), assembled as the
    no-jump part of Heff = H - (i/2) sum r_k O_k^dag O_k plus the jumps
    sum r_k conj(O_k) kron O_k."""
    heff = H.matrix - 0.5j * _damping(collapse, H.space)
    n = heff.shape[0] ** 2
    # the jumps are summed apart: each is far sparser than the no-jump part
    jumps = sum((rate * sp.kron(op.matrix.conj(), op.matrix, format="csr")
                 for op, rate in collapse if rate),
                sp.csr_matrix((n, n), dtype=complex))
    return Liouvillian(H.space, (_no_jump_superop(heff) + jumps).tocsr(),
                       H, collapse)


@dataclass
class EvolutionResult:
    times: np.ndarray
    observables: dict[str, np.ndarray]
    diagnostics: dict = field(default_factory=dict)


def _observable_weights(obs) -> tuple[np.ndarray, bool]:
    """``(w, is_state)`` with tr(O rho) = w . vec(rho).  A state vector psi
    stands for O = |psi><psi|; its value is a fidelity, hence real."""
    if isinstance(obs, LinearOperator):
        O = obs.toarray()
    else:
        O = np.asarray(obs, dtype=complex)
    is_state = O.ndim == 1
    if is_state:
        O = np.outer(O, O.conj())
    # vec(rho)[b + a*d] = rho[b, a] pairs with O[a, b]: the C-order ravel
    return O.reshape(-1), is_state


def _hermitian_basis(d: int) -> sp.csr_matrix:
    """Unitary Q with columns vec(E_aa), vec(E_ab + E_ba)/sqrt 2 and
    vec(i(E_ab - E_ba))/sqrt 2 (a < b): Hermitian rho = Q x with x real."""
    a, b = np.triu_indices(d, 1)
    col, s = d + np.arange(len(a)), np.full(len(a), math.sqrt(0.5))
    rows = np.concatenate([np.arange(d) * (d + 1), *[a + d*b, b + d*a] * 2])
    cols = np.concatenate([np.arange(d), col, col, col + len(a), col + len(a)])
    vals = np.concatenate([np.ones(d), s, s, 1j * s, -1j * s])
    return sp.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))


def _chebyshev_plan(liouvillian: Liouvillian, h: float
                    ) -> tuple[float, float, int, np.ndarray]:
    """``(c, R, m, coef)``: exp(A h) = (exp(c h/m) sum_k coef_k S_k)^m with
    S_0 = 1, S_1 = A', S_k+1 = 2 A' S_k + S_k-1 and A' = (A - c)/R; the
    bound of the module docstring picks m and K = len(coef)."""
    H, collapse = liouvillian.hamiltonian.toarray(), liouvillian.collapse
    jump = sum(r * np.linalg.norm(op.toarray(), 2) ** 2 for op, r in collapse)
    lam = np.linalg.eigvalsh(_damping(collapse, liouvillian.space).toarray())
    # W(A) lies in [c - a, c + a] x [-iR, iR]; R = 0 only for L = 0
    R = float(np.ptp(np.linalg.eigvalsh(H)) + jump) or 1.0
    c, a = -0.5 * (lam[-1] + lam[0]), 0.5 * (lam[-1] - lam[0]) + jump
    # log rho of the Bernstein ellipse through the box corner 1 + i a/R
    log_rho = math.acosh(0.5 * (math.hypot(2.0, a / R) + a / R))
    best = (math.inf, 0, 0)  # (m K, m, K); every K is at least 2
    m = 1
    while 2 * m < best[0]:
        tau = R * h / m
        # terms halve past k = e tau rho; |J_k| < tiny where jv underflows
        k = np.arange(int(math.e * tau * math.exp(log_rho)) + 50)
        log_j = np.log(np.maximum(np.abs(jv(k, tau)), np.finfo(float).tiny))
        with np.errstate(over="ignore"):
            terms = 2 * (1 + math.sqrt(2)) * np.exp(log_j + k * log_rho)
        closed = np.cumsum(terms[::-1])[::-1] < _CHEBYSHEV_TOL
        K = max(int(np.argmax(closed)), 2)
        if closed.any() and terms[:K].max() * _CHEBYSHEV_TOL < 1:
            best = min(best, (m * K, m, K))
        m += 1
    _, m, K = best
    coef = np.where(np.arange(K) > 0, 2.0, 1.0) * jv(np.arange(K), R * h / m)
    return c, R, m, coef * math.exp(c * h / m)


def _propagate(liouvillian: Liouvillian, y0: np.ndarray, n: int, dt: float
               ) -> tuple[np.ndarray, int, dict]:
    """``(Y, matvecs, propagator)``: Y[k] = expm(L k dt) y0 for k < n, the
    number of generator or propagator matvecs made, and the method."""
    L = liouvillian.matrix
    if L.shape[0] <= _DENSE_PROPAGATOR_MAX:
        P = expm(L.toarray() * dt)
        Y = np.empty((n, len(y0)), dtype=complex)
        Y[0] = y0
        for k in range(1, n):
            Y[k] = P @ Y[k - 1]
        return Y, n - 1, dict(method="dense_expm", terms=None, substeps=1)
    Q = _hermitian_basis(liouvillian.dim)
    A = (Q.conj().T @ L @ Q).tocsr()
    if abs(A.imag).max() > _HERMITIAN_RTOL * abs(L).max():
        raise ValueError("generator does not preserve Hermiticity")
    c, R, m, coef = _chebyshev_plan(liouvillian, dt)
    B = ((2.0 / R) * (A.real - c * sp.identity(A.shape[0]))).tocsr()
    X = np.empty((n, A.shape[0]))
    X[0] = x = (Q.conj().T @ y0).real.copy()
    for j in range(1, n):
        for _ in range(m):
            prev, cur = x, 0.5 * (B @ x)
            x = coef[0] * prev + coef[1] * cur
            for ck in coef[2:]:
                # S_k+1 = B S_k + S_k-1 with B = 2 A', written over S_k-1
                prev, cur = cur, np.add(B @ cur, prev, out=prev)
                x += ck * cur
        X[j] = x
    return X @ Q.T, (n - 1) * m * (len(coef) - 1), dict(
        method="chebyshev", terms=len(coef), substeps=m)


def evolve(liouvillian: Liouvillian, rho0: DensityMatrix | np.ndarray,
           t_grid: np.ndarray, observables: dict | None = None
           ) -> EvolutionResult:
    """Propagate vec(rho) exactly along the uniform ``t_grid`` (us).

    ``rho0`` is the state at ``t_grid[0]``.  Observables may be
    ``LinearOperator``s / matrices (expectation values) or state vectors
    (fidelities).  Raises ``ValueError`` for a grid that is not a uniform
    increasing ``linspace``, a non-Hermitian ``rho0`` (relative ``1e-12``)
    or, for d^2 > 1024, an L that does not preserve Hermiticity;
    :class:`EvolutionError` on non-finite values or a positivity violation
    below ``-1e-6``.  ``diagnostics["propagator"]`` holds the ``method``
    (``dense_expm``/``chebyshev``), its ``terms`` and ``substeps`` a step.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must contain at least two times")
    n = len(t_grid)
    dt = (t_grid[-1] - t_grid[0]) / (n - 1)
    # linspace places each point within a few ulps of |t|
    slack = 1e-9 * abs(dt) + 16 * np.finfo(float).eps * np.abs(t_grid).max()
    if not dt > 0 or np.abs(np.diff(t_grid) - dt).max() > slack:
        raise ValueError("t_grid must be uniform and increasing (a linspace)")
    d = liouvillian.dim
    rho_mat = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0)
    if (np.abs(rho_mat - rho_mat.conj().T).max()
            > _HERMITIAN_RTOL * np.abs(rho_mat).max()):
        raise ValueError("rho0 is not Hermitian")

    Y, matvecs, propagator = _propagate(liouvillian, vectorize(rho_mat), n, dt)
    if not np.isfinite(Y).all():
        raise EvolutionError("propagation produced non-finite values",
                             {"rhs_evaluations": matvecs})

    # row j of Y is vec(rho(t_j)) in column order: rho = row.reshape(d, d).T
    rhos = Y.reshape(n, d, d).transpose(0, 2, 1)
    adj = rhos.conj().transpose(0, 2, 1)
    drift = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    herm = np.abs(rhos - adj).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh(0.5 * (rhos + adj))[:, 0]
    bad = np.flatnonzero(min_eig < -POSITIVITY_ABORT)
    if bad.size:
        j = bad[0]
        raise EvolutionError(
            f"positivity violated at t={t_grid[j]:.4g} us "
            f"(min eig {min_eig[j]:.3e})",
            {"t": float(t_grid[j]), "min_eigenvalue": float(min_eig[j]),
             "trace_drift": float(drift[j]), "hermiticity": float(herm[j])})

    values = {}
    for name, obs in (observables or {}).items():
        w, is_state = _observable_weights(obs)
        values[name] = np.real(Y @ w) if is_state else Y @ w

    diagnostics = {
        "max_trace_drift": float(drift.max()),
        "max_hermiticity_defect": float(herm.max()),
        "min_eigenvalue": float(min_eig.min()),
        "rhs_evaluations": matvecs,
        "propagator": propagator,
    }
    return EvolutionResult(t_grid, values, diagnostics)


@dataclass
class SteadyState:
    rho: DensityMatrix
    residual: float
    method: str
    info: dict = field(default_factory=dict)


def residual_norm(liouvillian: Liouvillian, rho: np.ndarray) -> float:
    """Max-norm of L vec(rho)."""
    return float(np.abs(liouvillian.matrix @ vectorize(rho)).max())


def _hermitize_normalize(rho: np.ndarray) -> np.ndarray:
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _no_jump_inverse(liouvillian: Liouvillian
                     ) -> tuple[Callable[[np.ndarray], np.ndarray], dict]:
    """``(solve, info)``: ``solve(y)`` applies S_sigma^-1 to a vectorized
    matrix, where S_sigma(rho) = -i(Heff rho - rho Heff^dag) with
    Heff = H - (i/2)(sum r_k O_k^dag O_k + sigma).

    The shift sigma > 0 equals adding the jump operator sqrt(sigma) 1,
    which leaves L unchanged but damps every mode, dark states included.
    One eigendecomposition Heff = V diag(lam) V^-1 diagonalizes S_sigma:
    rho = V X V^dag maps to X_jk -> -i(lam_j - conj(lam_k)) X_jk.
    """
    d = liouvillian.dim
    damping = _damping(liouvillian.collapse, liouvillian.space).toarray()
    sigma = _SHIFT_FRACTION * float(np.trace(damping).real) / d
    if not sigma > 0:
        raise SteadyStateError(
            "steady state is not unique: the generator has no dissipation")
    heff = (liouvillian.hamiltonian.toarray()
            - 0.5j * (damping + sigma * np.eye(d)))
    lam, V = np.linalg.eig(heff)
    cond_v = float(np.linalg.cond(V))
    if not cond_v <= _MAX_EIGVEC_COND:
        raise SteadyStateError(
            f"no-jump Hamiltonian is near-defective (cond(V) = {cond_v:.2e} "
            f"> {_MAX_EIGVEC_COND:.0e}); its eigenbasis cannot invert S")
    W = np.linalg.inv(V)
    Vh, Wh = V.conj().T, W.conj().T
    inv_rate = 1.0 / (-1j * (lam[:, None] - lam.conj()[None, :]))

    def solve(y: np.ndarray) -> np.ndarray:
        Y = unvectorize(y, d)
        return vectorize(V @ ((W @ Y @ Wh) * inv_rate) @ Vh)

    return solve, {"shift": sigma, "cond_V": cond_v}


def steady_state(liouvillian: Liouvillian, tol: float = 1e-6) -> SteadyState:
    """Solve L(rho) = 0 with unit trace, matrix-free.

    L = S_sigma + J + sigma with the jump part J(rho) = sum r_k O_k rho
    O_k^dag (see :func:`_no_jump_inverse`), so the jump map
    K = -S_sigma^-1 (J + sigma) = I - S_sigma^-1 L has exactly the kernel
    of L as its fixed points.  Restarted GMRES solves
    (I - K) x + u tr(x) = u with u = vec(1/d).  Each iteration is one
    sparse L matvec plus four dense d x d products; no d^2 x d^2 matrix is
    formed or factorized.  Uniqueness is checked on every solve: an
    Arnoldi run gives the two largest |eigenvalues| of K, and a gap
    1 - |mu_2| below ``1e-8`` raises :class:`SteadyStateError`, as do a
    near-defective Heff and a residual ``||L vec(rho)||_inf`` above
    ``tol``.  ``info`` holds ``iterations``, ``residual_history`` (relative
    preconditioned GMRES residuals), ``kernel_gap``, ``shift`` and
    ``cond_V``.
    """
    d = liouvillian.dim
    n = d * d
    L = liouvillian.matrix
    solve, info = _no_jump_inverse(liouvillian)

    K = ScipyLinearOperator((n, n), matvec=lambda x: x - solve(L @ x),
                            dtype=complex)
    # a fixed start vector keeps the reported gap reproducible
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    mu = eigs(K, k=2, which="LM", v0=v0, return_eigenvectors=False)
    gap = 1.0 - float(np.abs(mu).min())
    info["kernel_gap"] = gap
    if gap < _MIN_KERNEL_GAP:
        raise SteadyStateError(
            f"steady state is not unique: kernel gap 1 - |mu_2| = {gap:.2e}")

    trace_idx = np.arange(d) * (d + 1)
    u = vectorize(np.eye(d, dtype=complex) / d)
    bordered = ScipyLinearOperator(
        (n, n), matvec=lambda x: solve(L @ x) + u * x[trace_idx].sum(),
        dtype=complex)
    history: list[float] = []
    x, code = gmres(bordered, u, rtol=_GMRES_RTOL, atol=0.0,
                    restart=_GMRES_RESTART, maxiter=_GMRES_MAXITER,
                    callback=history.append, callback_type="pr_norm")
    info["iterations"] = len(history)
    info["residual_history"] = [float(r) for r in history]
    rho = _hermitize_normalize(unvectorize(x, d))
    res = residual_norm(liouvillian, rho)
    if not res <= tol:
        raise SteadyStateError(
            f"steady-state residual {res:.3e} exceeds tolerance {tol:.1e} "
            f"after {len(history)} GMRES iterations"
            + ("" if code == 0 else " (GMRES did not converge)"))
    return SteadyState(DensityMatrix(liouvillian.space, rho), res,
                       SYLVESTER_GMRES, info)
