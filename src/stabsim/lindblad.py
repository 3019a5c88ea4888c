"""Lindblad master-equation evolution and steady states.

The master equation  drho/dt = -i[H, rho] + sum_k r_k D(L_k) rho  with
D(L) rho = (2 L rho L^dag - L^dag L rho - rho L^dag L)/2  is vectorized by
column stacking: vec(rho) = rho.reshape(-1, order="F"), for which
vec(A rho B) = (B^T kron A) vec(rho).  The resulting sparse matrix acts on
vectors of length d^2.

Time evolution is exact propagation on a uniform time grid: small spaces
(d^2 <= 1024) form the dense one-step propagator expm(L dt) once and apply
it per step; larger ones use scipy's ``expm_multiply`` (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 488 (2011)).  No step size is chosen, so neither
tolerances nor a stability cap steer it.  Trace, hermiticity and positivity
are monitored at every stored point, never enforced.  Only the
``long_time`` steady-state path integrates with an adaptive stepper
(DOP853), steered by ``rtol``/``atol`` and capped by
:meth:`Liouvillian.stability_max_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import eigs, expm_multiply, spsolve

from .hamiltonian import CollapseSet
from .hilbert import CompositeSpace, DensityMatrix, LinearOperator

NULLSPACE = "nullspace"
LONG_TIME = "long_time"

#: positivity violation that aborts an evolution
POSITIVITY_ABORT = 1e-6
#: largest d^2 propagated with a dense expm(L dt); its 16 MB bounds memory
_DENSE_PROPAGATOR_MAX = 1024


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
    _spectral_radius: float | None = None

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def spectral_radius(self) -> float:
        """Largest |eigenvalue| estimate (power iteration, deterministic).

        Explicit adaptive steppers must not step past the stability limit
        set by this scale: once the solution is quasi-static their error
        control no longer sees the marginal high-frequency modes, and
        roundoff in those modes grows exponentially.
        """
        if self._spectral_radius is None:
            n = self.matrix.shape[0]
            v = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
            nrm = 0.0
            for _ in range(30):
                w = self.matrix @ v
                nrm = float(np.linalg.norm(w))
                if nrm == 0.0:
                    break
                v = w / nrm
            self._spectral_radius = nrm
        return self._spectral_radius

    def stability_max_step(self, safety: float = 2.5) -> float:
        rho = self.spectral_radius()
        return math.inf if rho == 0 else safety / rho

    def shifted(self, dH: LinearOperator) -> "Liouvillian":
        """Generator of ``H + dH`` with the same collapse set.

        The dissipators do not depend on H, so only -i[dH, .] is added.
        """
        return Liouvillian(self.space,
                           (self.matrix + _commutator_superop(dH.matrix)).tocsr(),
                           self.hamiltonian + dH, self.collapse)


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d, order="F")


def _commutator_superop(Hm: sp.spmatrix) -> sp.csr_matrix:
    """Vectorized -i[H, .]."""
    ident = sp.identity(Hm.shape[0], format="csr", dtype=complex)
    return -1j * (sp.kron(ident, Hm, format="csr")
                  - sp.kron(Hm.T, ident, format="csr"))


def build_liouvillian(H: LinearOperator, collapse: CollapseSet) -> Liouvillian:
    """Vectorized generator -i[H, .] + sum rate * D(L)."""
    space = H.space
    d = space.total_dim
    ident = sp.identity(d, format="csr", dtype=complex)
    L = _commutator_superop(H.matrix)
    for op, rate in collapse:
        if op.space != space:
            raise ValueError("collapse operator lives on a different space")
        if rate == 0:
            continue
        O = op.matrix
        OdO = (O.conj().T @ O).tocsr()
        L = L + rate * (sp.kron(O.conj(), O, format="csr")
                        - 0.5 * sp.kron(ident, OdO, format="csr")
                        - 0.5 * sp.kron(OdO.T, ident, format="csr"))
    return Liouvillian(space, L.tocsr(), H, collapse)


@dataclass
class EvolutionResult:
    times: np.ndarray
    observables: dict[str, np.ndarray]
    snapshots: list[tuple[float, DensityMatrix]] = field(default_factory=list)
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


def _counted(L: sp.csr_matrix) -> tuple[sp.csr_matrix, list[int]]:
    """``(A, count)``: ``L`` as a CSR matrix whose ``dot`` adds the number
    of vectors it is applied to to ``count[0]``.

    Sparse arithmetic rebuilds its results as ``self.__class__``, so the
    shifted and scaled copies that ``expm_multiply`` derives count too.
    Products with ``A^H`` in scipy's 1-norm estimator are not counted.
    """
    count = [0]

    class Counted(sp.csr_matrix):
        def dot(self, other):
            count[0] += 1 if np.ndim(other) == 1 else np.shape(other)[1]
            return super().dot(other)

    return Counted(L), count


def _propagate(L: sp.csr_matrix, y0: np.ndarray, n: int, dt: float
               ) -> tuple[np.ndarray, int]:
    """``(Y, matvecs)``: Y[k] = expm(L k dt) y0 for k < n, and the number of
    generator or propagator matvecs made."""
    if L.shape[0] <= _DENSE_PROPAGATOR_MAX:
        P = expm(L.toarray() * dt)
        Y = np.empty((n, len(y0)), dtype=complex)
        Y[0] = y0
        for k in range(1, n):
            Y[k] = P @ Y[k - 1]
        return Y, n - 1
    A, count = _counted(L)
    Y = expm_multiply(A, y0, start=0.0, stop=(n - 1) * dt, num=n,
                      endpoint=True)
    return Y, count[0]


def evolve(liouvillian: Liouvillian, rho0: DensityMatrix | np.ndarray,
           t_grid: np.ndarray, observables: dict | None = None,
           snapshot_times: np.ndarray | None = None,
           check_positivity: bool = True) -> EvolutionResult:
    """Propagate vec(rho) exactly along the uniform ``t_grid`` (us).

    ``rho0`` is the state at ``t_grid[0]``.  Observables may be
    ``LinearOperator``s / matrices (expectation values) or state vectors
    (fidelities).  Snapshots are stored as ``DensityMatrix`` values at the
    requested times (nearest grid point).  Raises ``ValueError`` for a
    grid that is not a uniform increasing ``linspace``, and
    :class:`EvolutionError` on non-finite values or a positivity violation
    below ``-1e-6``.
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

    Y, matvecs = _propagate(liouvillian.matrix, vectorize(rho_mat), n, dt)
    if not np.isfinite(Y).all():
        raise EvolutionError("propagation produced non-finite values",
                             {"rhs_evaluations": int(matvecs)})

    # row j of Y is vec(rho(t_j)) in column order: rho = row.reshape(d, d).T
    rhos = Y.reshape(n, d, d).transpose(0, 2, 1)
    adj = rhos.conj().transpose(0, 2, 1)
    drift = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    herm = np.abs(rhos - adj).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh(0.5 * (rhos + adj))[:, 0]
    if check_positivity:
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
    snapshot_times = (np.asarray(snapshot_times, dtype=float)
                      if snapshot_times is not None else np.empty(0))
    snap_idx = sorted(set(int(np.argmin(np.abs(t_grid - ts)))
                          for ts in snapshot_times))
    snaps = [(float(t_grid[j]), DensityMatrix(liouvillian.space, rhos[j].copy()))
             for j in snap_idx]

    diagnostics = {
        "max_trace_drift": float(drift.max()),
        "max_hermiticity_defect": float(herm.max()),
        "min_eigenvalue": float(min_eig.min()),
        "rhs_evaluations": int(matvecs),
    }
    return EvolutionResult(t_grid, values, snaps, diagnostics)


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


def _nullspace_steady(liouvillian: Liouvillian, tol: float,
                      check_uniqueness: bool) -> SteadyState:
    L = liouvillian.matrix
    d = liouvillian.dim
    n = d * d
    # Add the trace constraint as a weighted row-0 update: the steady state
    # satisfies both L x = 0 and tr(x) = 1, so (L + w e_0 tr) x = w e_0.
    weight = float(np.abs(L.data).mean()) if L.nnz else 1.0
    trace_cols = np.arange(d) * (d + 1)
    bump = sp.csr_matrix((np.full(d, weight), (np.zeros(d, dtype=int), trace_cols)),
                         shape=(n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = weight
    info: dict = {"weight": weight}
    try:
        x = spsolve((L + bump).tocsc(), rhs)
        failed = not np.all(np.isfinite(x))
    except RuntimeError:
        x, failed = None, True
    if failed:
        # a single trace row cannot regularize a kernel of dimension > 1
        _raise_if_degenerate(L, info)
        raise SteadyStateError("nullspace factorization failed")
    rho = _hermitize_normalize(unvectorize(x, d))
    res = residual_norm(liouvillian, rho)
    if res > tol or check_uniqueness:
        _raise_if_degenerate(L, info)
    if res > tol:
        raise SteadyStateError(
            f"nullspace solve residual {res:.3e} exceeds tolerance {tol:.1e}")
    return SteadyState(DensityMatrix(liouvillian.space, rho), res, NULLSPACE, info)


def _raise_if_degenerate(L: sp.spmatrix, info: dict) -> None:
    lam = _smallest_liouvillian_eigenvalues(L)
    info["smallest_eigenvalues"] = lam
    if lam is not None and len(lam) > 1 and abs(lam[1]) < 1e-10:
        raise SteadyStateError(
            f"steady state is not unique: second Liouvillian eigenvalue "
            f"{lam[1]:.3e}")


def _smallest_liouvillian_eigenvalues(L: sp.spmatrix, k: int = 2):
    try:
        vals = eigs(L.tocsc(), k=k, sigma=1e-9, which="LM",
                    return_eigenvectors=False)
    except Exception:
        return None
    return sorted(vals, key=abs)


def _affine_min_residual(L: sp.spmatrix, states: list[np.ndarray]
                         ) -> tuple[np.ndarray, float]:
    """Affine combination of iterates minimizing ||L x||_2 (sum c = 1).

    A long-time sweep decays through several slow Liouvillian modes with
    comparable rates; the best affine combination of the recent iterates
    cancels up to len(states)-1 of them at once, which plain geometric
    extrapolation (a single mode) cannot.
    """
    R = np.stack([L @ x for x in states], axis=1)
    k = R.shape[1]
    gram = R.conj().T @ R
    scale = float(np.abs(gram).max()) or 1.0
    kkt = np.zeros((k + 1, k + 1), dtype=complex)
    kkt[:k, :k] = gram / scale
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1, dtype=complex)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return states[-1], float(np.abs(R[:, -1]).max())
    c = sol[:k]
    x = sum(ci * xi for ci, xi in zip(c, states))
    return x, float(np.abs(R @ c).max())


def _long_time_steady(liouvillian: Liouvillian, tol: float,
                      rho0: np.ndarray | None, max_time: float,
                      chunk: float, rtol: float, atol: float,
                      window: int = 8) -> SteadyState:
    # the only adaptive integration left: other runs never load scipy.integrate
    from scipy.integrate import solve_ivp

    d = liouvillian.dim
    L = liouvillian.matrix
    if rho0 is None:
        rho0 = np.eye(d, dtype=complex) / d
    y = vectorize(rho0)
    t = 0.0
    history: list[np.ndarray] = []
    best = (residual_norm(liouvillian, unvectorize(y, d)), y)
    cap = liouvillian.stability_max_step()
    # eighth order keeps the capped-step truncation error far below any
    # useful residual tolerance; RK45 at the stability cap floors near 1e-5
    while t < max_time and best[0] > tol:
        sol = solve_ivp(lambda s, v: L @ v, (0.0, chunk), y, method="DOP853",
                        rtol=rtol, atol=atol, max_step=cap)
        if not sol.success:
            raise SteadyStateError(f"long-time integration failed: {sol.message}")
        y = sol.y[:, -1]
        t += chunk
        history.append(y.copy())
        if len(history) > window:
            history.pop(0)
        res = float(np.abs(L @ y).max())
        if res < best[0]:
            best = (res, y.copy())
        if res <= tol:
            break
        if len(history) >= 3:
            cand, res_c = _affine_min_residual(L, history)
            if res_c < res:
                y = cand
                if res_c < best[0]:
                    best = (res_c, y.copy())
                # restart the window from the accelerated iterate
                history = [y.copy()]
    res, y = best
    if res > tol:
        raise SteadyStateError(
            f"long-time method reached t={t:.1f} us with residual {res:.3e} "
            f"above tolerance {tol:.1e}")
    rho = _hermitize_normalize(unvectorize(y, d))
    return SteadyState(DensityMatrix(liouvillian.space, rho),
                       residual_norm(liouvillian, rho), LONG_TIME,
                       {"evolved_time": t})


def steady_state(liouvillian: Liouvillian, method: str = "auto",
                 tol: float = 1e-6, nullspace_max_dim: int = 40_000,
                 rho0: np.ndarray | DensityMatrix | None = None,
                 max_time: float = 400.0, chunk: float = 5.0,
                 rtol: float = 1e-8, atol: float = 1e-10,
                 check_uniqueness: bool = False) -> SteadyState:
    """Solve L(rho) = 0 with unit trace.

    ``nullspace`` solves the trace-augmented sparse linear system directly
    and is used automatically while d^2 <= ``nullspace_max_dim``; otherwise
    ``long_time`` integrates from ``rho0`` (default maximally mixed) in
    chunks, with geometric extrapolation of the slowest mode, until
    ``||L vec(rho)||_inf <= tol``.
    """
    n = liouvillian.dim ** 2
    if method == "auto":
        method = NULLSPACE if n <= nullspace_max_dim else LONG_TIME
    if isinstance(rho0, DensityMatrix):
        rho0 = rho0.matrix
    if method == NULLSPACE:
        if n > nullspace_max_dim:
            raise SteadyStateError(
                f"nullspace method refused: d^2 = {n} exceeds {nullspace_max_dim}")
        return _nullspace_steady(liouvillian, tol, check_uniqueness)
    if method == LONG_TIME:
        return _long_time_steady(liouvillian, tol, rho0, max_time, chunk,
                                 rtol, atol)
    raise ValueError(f"unknown steady-state method {method!r}")
