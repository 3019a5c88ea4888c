"""Lindblad master-equation evolution and steady states.

The master equation  drho/dt = -i[H, rho] + sum_k r_k D(L_k) rho  with
D(L) rho = (2 L rho L^dag - L^dag L rho - rho L^dag L)/2  is vectorized by
column stacking: vec(rho) = rho.reshape(-1, order="F"), for which
vec(A rho B) = (B^T kron A) vec(rho).  The resulting sparse matrix acts on
vectors of length d^2.

Time evolution is exact propagation on a uniform time grid of the real x
of rho = Q x, Q an orthonormal Hermitian basis.  :func:`evolve_shifted`
runs one state under a family L + delta F with F = -i[N, .] diagonal on
vec(rho); :func:`evolve` is its one-member delta = 0 family.  A_0 =
Re(Q^dag L Q) and the skew-symmetric A_F = Re(Q^dag F Q) are formed
once, as sparse products with Q, on either path (the dense one makes
them dense), and every call checks that Q^dag L Q is real (L
preserves Hermiticity).  A family of more than one member at
d^2 <= 1024 runs dense: one stacked real expm((A_0 + delta A_F) dt) per
group of floor(1024^2 / d^4) members (the memory of one 1024 x 1024
propagator), by Pade 13 with scaling and squaring, each member scaled
by its own power of 2 (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
(2005)), and one batched product per grid step, a run of steps
stepped into one array before it is observed.
Every other call is one Chebyshev plan (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967 (1984)) for every member A_0 + delta A_F, run one member
at a time.  W of every member lies in a box of half-height R (the larger
spread of H + delta N at the two end members, which bounds every
member's as the spread is convex in delta, plus J = sum r_k ||O_k||_2^2)
whose real extent, every member's, is both an analytic interval (from
the damping and J) and the Gershgorin interval of A_0's symmetric part.
Scaled by the half-width R' (1.1 R, or R where that plans fewer
matvecs), the box lies in a Bernstein ellipse rho; with
the Crouzeix-Palencia constant 1 + sqrt 2 (SIAM J. Matrix Anal. Appl. 38,
649 (2017)), K terms of exp(A t) err by at most (1 + sqrt 2) 2
sum_{k>=K} |J_k(R' t)| rho^k.  K is the least count making this < 1e-14
with no term > 1e14 (beyond double precision).  The Chebyshev vectors do
not depend on t, so one expansion over s steps gives all s grid points,
each from its own Bessel coefficients (Kosloff, Annu. Rev. Phys. Chem.
45, 145 (1994)); the plan picks s and, only where s = 1 fails, m
substeps a step to minimize the real matvecs on the grid.

Both propagators hand their states' x to one observer a block at a time
(a run of grid steps of a dense group, or one expansion's outputs for
one member), which builds each state once, exactly Hermitian,
evaluates the observables and monitors trace and positivity
(:class:`_StateObserver`) at every stored point, never enforcing them;
no trajectory is kept.

The steady state is one matrix-free Arnoldi run: the no-jump (Sylvester)
part of L is inverted from one eigendecomposition of the effective
Hamiltonian (Bartels & Stewart, Commun. ACM 15, 820 (1972)) and
preconditions L, and a thick-restart Arnoldi run (Krylov-Schur; Stewart,
SIAM J. Matrix Anal. Appl. 23, 601 (2001)), bounded in restarts, finds
the preconditioned operator's two largest eigenvalues.  Their gap checks
that the kernel is unique, and the eigenvector of the first is the
steady state, refused if its smallest eigenvalue is below
-POSITIVITY_ABORT.  Both kernels are numpy code: stabsim loads neither
scipy.linalg nor scipy.sparse.linalg.

The d^2 x d^2 matrices are :class:`CSR` records; each operation on them
calls the compiled kernel scipy.sparse would call, with the same
arguments, so every sum is scipy's, bitwise.  Only that extension is
loaded, never scipy.sparse's Python layer (:func:`_load_sparsetools`).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .hilbert import CompositeSpace


def _load_sparsetools():
    """scipy's compiled sparse kernels, the extension module
    scipy.sparse._sparsetools, without running scipy.sparse's __init__
    (whose array-API layer loads numpy.testing, numpy.f2py and numpy.ma).
    A loaded module is reused; one loaded here is registered under its own
    name, so that a later ``import scipy.sparse`` takes the same module.
    Raises ``ImportError`` naming the file where it is missing."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        folder = os.path.join(os.path.dirname(scipy.origin) if scipy
                              else "scipy", "sparse")
        spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)
                          ).find_spec(name)
        if spec is None:
            raise ImportError(f"scipy's sparse kernels {folder}{os.sep}"
                              f"_sparsetools{EXTENSION_SUFFIXES[0]} are "
                              f"missing")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_sparsetools = _load_sparsetools()
csr_matvec = _sparsetools.csr_matvec

SYLVESTER_ARNOLDI = "sylvester_arnoldi"

#: positivity violation that aborts an evolution or a steady state
POSITIVITY_ABORT = 1e-6
#: d^2 of the largest dense propagator; a dense group's stacked
#: propagators take no more than its 8 MB
_DENSE_PROPAGATOR_MAX = 1024
#: grid steps a dense group hands to the observer in one call, the
#: measured optimum of the probe scan's time against its peak RSS
_DENSE_BLOCK_STEPS = 8
#: Chebyshev propagation: bound on the truncation error of one expansion
_CHEBYSHEV_TOL = 1e-14
#: the Crouzeix-Palencia constant 1 + sqrt 2 times the 2 of the
#: coefficients (2 - delta_k0) J_k
_CP_TERM = 2 * (1 + math.sqrt(2))
#: the expansion's half-width R' over the box's R, tried beside R' = R
_WIDEN = 1.1
#: rows of the buffer the Chebyshev vectors are summed from
_CHUNK_ROWS = 32
#: refused anti-Hermitian part of rho0 and of L, relative to the largest entry
_HERMITIAN_RTOL = 1e-12
#: steady-state shift sigma as a fraction of the mean damping
#: tr(sum r_k O_k^dag O_k)/d
_SHIFT_FRACTION = 0.01
#: split of Heff's diagonal, relative to its largest entry, that keeps the
#: preconditioner's eigenbasis well conditioned at exceptional points
_EIG_SPLIT = 1e-4
#: kernel gap 1 - |mu_2| below which the steady state is not unique; the
#: smallest measured gap of a bundled scenario (decoherence-free
#: bell_single_channel) is ~1.5e-4, a degenerate kernel reads ~1e-16
_MIN_KERNEL_GAP = 1e-8
#: Arnoldi passes (restarts) allowed to the steady-state run, about 9x the
#: most a bundled scenario needs (21: `w` at qubit_dim 3)
_EIGS_MAXITER = 180
#: Krylov basis size of the steady-state run, ARPACK's default for two
#: eigenpairs, and the Ritz vectors each restart keeps
_KRYLOV_DIM = 20
_KRYLOV_KEEP = 11
#: Higham's Pade 13 coefficients b_0 .. b_13 and the 1-norm theta_13 up
#: to which it needs no scaling
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class EvolutionError(RuntimeError):
    """Integration failure; carries the diagnostics collected so far."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SteadyStateError(RuntimeError):
    """Steady-state solve failed to converge or is not unique."""


@dataclass(eq=False)
class CSR:
    """A sparse matrix as scipy's CSR arrays: row i holds the entries
    ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]``, the
    indices int32.  A matrix in CSC is the record of its transpose."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.shape[0], dtype=np.result_type(self.data, x))
        csr_matvec(*self.shape, self.indptr, self.indices, self.data, x, y)
        return y

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        _sparsetools.csr_todense(*self.shape, self.indptr, self.indices,
                                 self.data, out)
        return out


def _empty(rows: int, size: int, dtype) -> tuple:
    """``(indptr, indices, data)`` for a kernel to fill, in its order."""
    return (np.empty(rows + 1, dtype=np.int32), np.empty(size, dtype=np.int32),
            np.empty(size, dtype=dtype))


def _record(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
            shape: tuple[int, int]) -> CSR:
    """The record of a kernel's output cut to its nnz entries, copied where
    that frees more than half of them, as scipy prunes."""
    nnz = int(indptr[-1])
    if nnz < len(data) // 2:
        return CSR(data[:nnz].copy(), indices[:nnz].copy(), indptr, shape)
    return CSR(data[:nnz], indices[:nnz], indptr, shape)


def _from_triplets(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   n: int) -> CSR:
    """The n x n sum of the ``(rows, cols, vals)`` entries less its exact
    zeros, as scipy's COO -> CSR conversion and ``eliminate_zeros`` make
    it."""
    out = _empty(n, len(vals), vals.dtype)
    _sparsetools.coo_tocsr(n, n, len(vals), rows, cols, vals, *out)
    # sorting sorted rows would reorder equal columns, and their sums; on
    # a canonical matrix the sum of duplicates changes nothing
    if not _sparsetools.csr_has_sorted_indices(n, *out[:2]):
        _sparsetools.csr_sort_indices(n, *out)
    _sparsetools.csr_sum_duplicates(n, n, *out)
    _sparsetools.csr_eliminate_zeros(n, n, *out)
    return _record(*out, (n, n))


def _diagonal_matrix(values: np.ndarray) -> CSR:
    """diag(``values``) less its zero entries, as scipy's DIA -> CSR
    conversion leaves it."""
    i = np.arange(len(values), dtype=np.int32)
    return _from_triplets(i, i, values, len(values))


def _transpose(A: CSR) -> CSR:
    out = _empty(A.shape[1], A.nnz, A.data.dtype)
    _sparsetools.csr_tocsc(*A.shape, A.indptr, A.indices, A.data, *out)
    return _record(*out, A.shape[::-1])


def _matmul(A: CSR, B: CSR) -> CSR:
    m, n = A.shape[0], B.shape[1]
    out = _empty(m, _sparsetools.csr_matmat_maxnnz(
        m, n, A.indptr, A.indices, B.indptr, B.indices),
        np.result_type(A.data, B.data))
    _sparsetools.csr_matmat(m, n, A.indptr, A.indices, A.data, B.indptr,
                            B.indices, B.data, *out)
    return _record(*out, (m, n))


def _binop(kernel, A: CSR, B: CSR) -> CSR:
    """A op B by ``csr_plus_csr`` or ``csr_minus_csr``, which keep no zero
    result."""
    out = _empty(A.shape[0], A.nnz + B.nnz, np.result_type(A.data, B.data))
    kernel(*A.shape, A.indptr, A.indices, A.data, B.indptr, B.indices,
           B.data, *out)
    return _record(*out, A.shape)


@dataclass
class Liouvillian:
    """Sparse d^2 x d^2 superoperator, a :class:`CSR` record, for one
    Hamiltonian and its ``(operator, rate)`` collapse pairs, which are
    dense d x d arrays, as is their damping D = sum r_k O_k^dag O_k."""

    space: CompositeSpace
    matrix: CSR
    hamiltonian: np.ndarray
    collapse: list[tuple[np.ndarray, float]]
    damping: np.ndarray

    @property
    def dim(self) -> int:
        return self.space.total_dim

    @cached_property
    def norms(self) -> np.ndarray:
        """||O_k||_2^2 of each channel, the largest eigenvalue of
        O_k^dag O_k.  Where every row of O_k holds at most one nonzero (a
        ladder or a number operator), O_k^dag O_k is diagonal and this is
        the largest column sum of |O_k|^2."""
        return np.array([
            (op.conj() * op).real.sum(axis=0).max()
            if (np.count_nonzero(op, axis=1) <= 1).all()
            else np.linalg.eigvalsh(op.conj().T @ op)[-1]
            for op, _ in self.collapse])


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d, order="F")


def _array(op, name: str) -> np.ndarray:
    """``op`` as a complex array.  Hilbert-space operators are dense d x d
    arrays; a scipy sparse matrix is refused (none exists unless
    scipy.sparse is loaded)."""
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(op):
        raise ValueError(f"{name} must be a dense array (Hilbert-space "
                         f"operators are d x d numpy arrays), not a scipy "
                         f"sparse matrix")
    return np.asarray(op, dtype=complex)


def _entries(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the nonzero entries of X, row by row,
    the indices int32 (d^2 < 2^31 here), which halves their transients."""
    rows, cols = (i.astype(np.int32) for i in np.nonzero(X))
    return rows, cols, X[rows, cols]


def build_liouvillian(space: CompositeSpace, H, collapse) -> Liouvillian:
    """Vectorized generator -i[H, .] + sum rate * D(L) on ``space``, for H
    and ``(operator, rate)`` collapse pairs as dense d x d arrays,
    assembled as the no-jump part rho -> -i(Heff rho - rho Heff^dag) of
    Heff = H - (i/2) D, D = sum r_k O_k^dag O_k (summed from each O_k's
    nonzero entries, kept on the result), plus the jumps
    sum r_k conj(O_k) kron O_k, as a :class:`CSR` record.

    Every term is a Kronecker product, written straight into one COO
    triplet set: kron(X, Y) has X_ab Y_ce at row a d + c, column b d + e;
    the CSR conversion sums the duplicates once and drops the exact
    cancellations (the commutator's diagonal).  Raises ``ValueError``
    for a scipy sparse operator, an operator that is not d x d, a
    non-finite entry of H or of the k-th collapse operator, or a negative
    or non-finite rate, naming H or k.
    """
    d = space.total_dim
    H = _array(H, "H")
    collapse = [(_array(op, "a collapse operator"), rate)
                for op, rate in collapse]
    if any(op.shape != (d, d) for op in [H] + [op for op, _ in collapse]):
        raise ValueError(f"an operator does not act on the space of dim {d}")
    if not np.isfinite(H).all():
        raise ValueError("H has a non-finite entry")
    for k, (op, rate) in enumerate(collapse):
        if not np.isfinite(op).all():
            raise ValueError(f"collapse operator {k} has a non-finite entry")
        if not 0 <= rate < math.inf:
            raise ValueError(f"collapse rates must be nonnegative and finite: "
                             f"operator {k} has rate {rate}")
    entries = [(_entries(op), rate) for op, rate in collapse]
    damping = np.zeros((d, d), dtype=complex)
    for (o_row, o_col, o_val), rate in entries:
        # O^dag (r O): every pair of entries p, q in one row of O adds
        # conj(O_p) r O_q at (col p, col q).  The entries run row by row:
        # p's row holds k[p] of them from index first[p]
        first = np.searchsorted(o_row, o_row)
        k = np.searchsorted(o_row, o_row, side="right") - first
        p = np.repeat(np.arange(len(o_row)), k)
        q = np.arange(len(p)) + np.repeat(first + k - np.cumsum(k), k)
        np.add.at(damping, (o_col[p], o_col[q]),
                  o_val[p].conj() * (rate * o_val[q]))
    a, b, v = _entries(H - 0.5j * damping)
    c = d * np.arange(d, dtype=np.int32)[:, None]
    # -i (1 kron Heff) and +i (conj(Heff) kron 1)
    rows = [(c + a).ravel(), (d * a + c // d).ravel()]
    cols = [(c + b).ravel(), (d * b + c // d).ravel()]
    vals = [np.broadcast_to(-1j * v, (d, len(v))).ravel(),
            np.broadcast_to(1j * v.conj(), (d, len(v))).ravel()]
    for (o_row, o_col, o_val), rate in entries:
        if rate:
            rows.append((d * o_row[:, None] + o_row).ravel())
            cols.append((d * o_col[:, None] + o_col).ravel())
            vals.append((rate * np.outer(o_val.conj(), o_val)).ravel())
    L = _from_triplets(np.concatenate(rows), np.concatenate(cols),
                       np.concatenate(vals), d * d)
    return Liouvillian(space, L, H, collapse, damping)


@dataclass
class EvolutionResult:
    times: np.ndarray
    observables: dict[str, np.ndarray]
    diagnostics: dict = field(default_factory=dict)


def _observable_weights(obs) -> tuple[np.ndarray, bool]:
    """``(w, is_state)`` with tr(O rho) = w . vec(rho).  A state vector psi
    stands for O = |psi><psi|; its value is a fidelity, hence real."""
    O = _array(obs, "an observable")
    is_state = O.ndim == 1
    if is_state:
        O = np.outer(O, O.conj())
    # vec(rho)[b + a*d] = rho[b, a] pairs with O[a, b]: the C-order ravel
    return O.reshape(-1), is_state


def _hermitian_basis(d: int) -> CSR:
    """Unitary Q with columns vec(E_aa), vec(E_ab + E_ba)/sqrt 2 and
    vec(i(E_ab - E_ba))/sqrt 2 (a < b): Hermitian rho = Q x with x real.
    The one construction of Q: the real generators are products with it,
    and each row holds at most one real and one imaginary entry, which
    the observer reads.  Q is made from its CSR arrays, known in closed
    form: row a (d + 1) holds 1 in column a, and rows a + d b and b + d a
    hold sqrt 1/2 in column d + k and +-i sqrt 1/2 in column
    d + k + d (d - 1)/2, for the k-th pair (a, b)."""
    a, b = np.triu_indices(d, 1)
    pair, s = d + np.arange(len(a), dtype=np.int32), math.sqrt(0.5)
    count = np.full(d * d, 2, dtype=np.int32)
    count[::d + 1] = 1
    indptr = np.zeros(d * d + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    indices[indptr[:-1:d + 1]], data[indptr[:-1:d + 1]] = np.arange(d), 1.0
    for rows, sign in ((a + d * b, 1.0), (b + d * a, -1.0)):
        at = indptr[rows]
        indices[at], data[at] = pair, s
        indices[at + 1], data[at + 1] = pair + len(a), sign * 1j * s
    return CSR(data, indices, indptr, (d * d, d * d))


def _bessel_j(tau: float, kmax: int) -> np.ndarray:
    """J_k(tau) for k < kmax (kmax >= 2) by Miller's backward recurrence
    J_k-1 = (2k/tau) J_k - J_k+1, started 30 orders above kmax and scaled
    by Neumann's sum J_0 + 2 sum_k J_2k = 1.  It is stable where it
    starts, in the decay k > tau, which kmax must reach; it needs one
    multiply-add per order."""
    vals = []
    prev, cur, c = 0.0, 1.0, 2.0 / tau
    for k in range(kmax + 30, 0, -1):
        prev, cur = cur, k * c * cur - prev
        vals.append(cur)
        if not -1e250 < cur < 1e250:
            prev, cur = prev * 1e-250, cur * 1e-250
            vals = [v * 1e-250 for v in vals]
    out = np.array(vals[::-1])  # J_0 .. J_kmax+29, unscaled
    return out[:kmax] / (out[0] + 2.0 * out[2::2].sum())


def _chebyshev_terms(tau: float, log_rho: float) -> int | None:
    """Least K with (1 + sqrt 2) 2 sum_{k>=K} |J_k(tau)| rho^k below
    ``_CHEBYSHEV_TOL`` and no term above its inverse, or None."""
    # |J_k(tau)| <= (tau/2)^k/k! bounds term k by b_k, and b_k at least
    # halves past k = tau rho: the sum beyond the first such k with
    # 2 b_k < tol/1000 is below tol/1000 and is added as that bound
    rho_tau = tau * math.exp(log_rho)
    k = np.arange(max(math.ceil(rho_tau), 2), int(math.e * rho_tau) + 60)
    log_fact = np.cumsum(np.log(np.arange(1, k[-1] + 1)))  # log j!, j >= 1
    log_2b = (math.log(2 * _CP_TERM) + k * math.log(0.5 * rho_tau)
              - log_fact[k - 1])
    end = int(k[np.argmax(log_2b < math.log(1e-3 * _CHEBYSHEV_TOL))])
    log_j = np.log(np.maximum(np.abs(_bessel_j(tau, end)),
                              np.finfo(float).tiny))
    with np.errstate(over="ignore"):
        terms = _CP_TERM * np.exp(log_j + np.arange(end) * log_rho)
    tail = np.cumsum(terms[::-1])[::-1] + 1e-3 * _CHEBYSHEV_TOL
    closed = tail < _CHEBYSHEV_TOL
    K = max(int(np.argmax(closed)), 2)
    if closed.any() and terms[:K].max() * _CHEBYSHEV_TOL < 1:
        return K
    return None


def _numerical_range_box(liouvillian: Liouvillian, A: CSR,
                         number: np.ndarray, shifts: np.ndarray
                         ) -> tuple[float, float, float]:
    """``(R, lo, hi)``: the numerical range of every member A + delta A_F,
    delta in ``shifts``, lies in the box [lo, hi] x [-iR, iR], for A and
    A_F the real matrices of L and F = -i[N, .], N = diag(``number``), in
    :func:`_hermitian_basis`.

    R is the larger spread of H + delta N at the least and the largest
    delta plus J = sum r_k ||O_k||_2^2 (1 for L = 0): the spread is convex
    in delta, so it bounds every member's.  A_F is skew-symmetric, so every
    member's Re W is W of A's symmetric part (A + A^T)/2, and [lo, hi] is
    the intersection of the analytic interval [-max D - J, -min D + J]
    (D = sum r_k O_k^dag O_k) with that part's Gershgorin interval.
    """
    H = liouvillian.hamiltonian
    jump = sum(r * norm for (_, r), norm in zip(liouvillian.collapse,
                                                liouvillian.norms))
    lam = np.linalg.eigvalsh(liouvillian.damping)
    spread = max(np.ptp(np.linalg.eigvalsh(
                     H + np.diag(delta * number) if delta else H))
                 for delta in {shifts.min(), shifts.max()})
    R = float(spread + jump) or 1.0
    sym = _binop(_sparsetools.csr_plus_csr, A, _transpose(A))
    centre = np.empty(A.shape[0])
    _sparsetools.csr_diagonal(0, *A.shape, sym.indptr, sym.indices, sym.data,
                              centre)
    radius = (replace(sym, data=np.abs(sym.data)) @ np.ones(A.shape[0])
              - np.abs(centre))
    return (R, max(-lam[-1] - jump, 0.5 * (centre - radius).min()),
            min(-lam[0] + jump, 0.5 * (centre + radius).max()))


def _chebyshev_plan(box: tuple[float, float, float], h: float, steps: int
                    ) -> tuple[float, float, int, np.ndarray, int, int]:
    """``(c, R', m, coef, K_r, matvecs)`` for ``steps`` grid steps of
    length h, A's numerical range in the ``box`` ``(R, lo, hi)``: with
    A' = (A - c)/R', S_0 = 1, S_1 = A' and S_k+1 = 2 A' S_k + S_k-1,
    exp(A j h/m) = sum_k coef[j-1, k] S_k for j = 1..s, s = len(coef).
    One expansion gives s grid points (m = 1), or a step is m applications
    of the single row.  The last r = steps mod s points take only the
    K_r <= K terms the rule needs over r h; K_r = K when s divides steps.
    The bound of the module docstring picks s, m and K = coef.shape[1] to
    minimize the ``matvecs`` on the grid, at whichever half-width, R' = R
    or 1.1 R, takes fewer (R on a tie)."""
    R, lo, hi = box
    c, a = 0.5 * (lo + hi), 0.5 * (hi - lo)
    best = None  # (matvecs, s, m, K, K_r, R'); R' = R wins a tie
    for wide in (R, _WIDEN * R):
        # log rho of the Bernstein ellipse (foci +-1 in w = -i A') through
        # the box corner R/R' + i a/R'
        x, y = R / wide, a / wide
        log_rho = math.acosh(max(
            1.0, 0.5 * (math.hypot(1 - x, y) + math.hypot(1 + x, y))))
        # grow s while the term rule holds and the grid's matvecs fall;
        # only when s = 1 fails, grow m the same way.  The rule is checked
        # at the block's last point, whose tail is the largest: the tail
        # lies past k = R' s h, where J_k(tau) grows with tau.  So the K_r
        # of the span r h, found when s was r, serve the last r < s points
        plan = None
        spans: dict[int, int | None] = {}  # s -> K over s h, m = 1
        s = m = 1
        while s <= steps:
            K = _chebyshev_terms(wide * (s * h / m), log_rho)
            if m == 1:
                spans[s] = K
            if K is None and plan is not None:
                break
            if K is not None:
                r = steps % s
                K_r = spans[r] if r else K
                matvecs = ((steps // s) * m * (K - 1)
                           + (m * (K_r - 1) if r else 0))
                if plan is not None and matvecs >= plan[0]:
                    break
                plan = (matvecs, s, m, K, K_r, wide)
            if plan is None or m > 1:
                m += 1
            else:
                s += 1
        if best is None or plan[0] < best[0]:
            best = plan
    matvecs, s, m, K, K_r, wide = best
    times = (h / m) * np.arange(1, s + 1)
    coef = np.array([_bessel_j(wide * t, K) for t in times])
    coef[:, 1:] *= 2.0
    return c, wide, m, coef * np.exp(c * times)[:, None], K_r, matvecs


def _chebyshev_sums(B: CSR, x: np.ndarray, coef: np.ndarray,
                    buf: np.ndarray, out: np.ndarray) -> None:
    """out[j] = sum_k coef[j, k] S_k x with S_0 = 1, S_1 = B/2 and
    S_k+1 = B S_k + S_k-1, the S_k written into the rows of ``buf`` and
    summed a buffer at a time; ``out`` may hold x."""
    K, n = coef.shape[1], B.shape[0]
    buf[0] = x
    buf[1] = 0.5 * (B @ x)
    out[:] = 0.0
    k0 = first = 0  # buf[i] holds S_k0+i; rows below ``first`` are summed
    while True:
        top = min(len(buf), K - k0)
        for i in range(max(first, 2), top):
            # the kernel accumulates y += B x in place, without a zeroed
            # temporary and a separate add
            buf[i] = buf[i - 2]
            csr_matvec(n, n, B.indptr, B.indices, B.data, buf[i - 1], buf[i])
        out += coef[:, k0 + first:k0 + top] @ buf[first:top]
        if k0 + top == K:
            return
        # the last two rows seed the next buffer
        buf[:2] = buf[top - 2:top]
        k0, first = k0 + top - 2, 2


def _rows_by_length(B: CSR) -> tuple[CSR, np.ndarray]:
    """``(P B P^T, perm)``: B's rows and columns both relabelled by the
    stable order ``perm`` of its row lengths, each row's entries kept in
    their stored order, so that (P B P^T) x[perm] = (B x)[perm] with every
    entry the same sum in the same order."""
    perm = np.argsort(np.diff(B.indptr), kind="stable")
    lengths = np.diff(B.indptr)[perm]
    indptr = np.zeros_like(B.indptr)
    np.cumsum(lengths, out=indptr[1:])
    # entry j of new row i is entry j of old row perm[i], gathered straight
    # from B's arrays, which holds less memory than a B[perm] copy beside B
    take = np.arange(B.nnz) + np.repeat(B.indptr[perm] - indptr[:-1], lengths)
    unperm = np.argsort(perm).astype(np.int32)
    return CSR(B.data[take], unperm[B.indices[take]], indptr, B.shape), perm


def _dense_group_size(n: int) -> int:
    """Generators of vector length n propagated together: their stacked
    propagators take no more memory than one of the largest dense size."""
    return max(1, _DENSE_PROPAGATOR_MAX ** 2 // n ** 2)


def _expm(P: np.ndarray) -> np.ndarray:
    """exp of each member of the real (g, n, n) stack ``P``, which it
    overwrites: Pade 13 with scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179 (2005)).  Each member is scaled by its own 2^-s
    to a 1-norm of at most theta_13, and its approximant is squared s
    times."""
    g, n, _ = P.shape
    norm = np.abs(P).sum(axis=1).max(axis=1)
    # a non-finite member takes s = 0 and stays non-finite for the observer
    norm[~np.isfinite(norm)] = 0.0
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    P *= np.ldexp(1.0, -s)[:, None, None]
    # the powers A^2, A^4, A^6 of every member, and from them in one
    # product the four sums C_k of the approximant r = (V - U)^-1 (V + U),
    # U = A (A^6 C_0 + C_1) and V = A^6 C_2 + C_3
    b = _PADE13
    sums = np.array([[b[9], b[11], b[13]], [b[3], b[5], b[7]],
                     [b[8], b[10], b[12]], [b[2], b[4], b[6]]])
    Z = np.empty((3, g, n, n))
    np.matmul(P, P, out=Z[0])
    np.matmul(Z[0], Z[0], out=Z[1])
    np.matmul(Z[1], Z[0], out=Z[2])
    C = (sums @ Z.reshape(3, -1)).reshape(4, g, n, n)
    diag = np.arange(n)
    C[1, :, diag, diag] += b[1]
    C[3, :, diag, diag] += b[0]
    # A^2 and A^4 are spent: their rows take the products
    C[1] += np.matmul(Z[2], C[0], out=Z[0])
    U = np.matmul(P, C[1], out=Z[1])
    V = C[3]
    V += np.matmul(Z[2], C[2], out=Z[0])
    V_minus_U = np.subtract(V, U, out=Z[0])
    V += U
    R = np.linalg.solve(V_minus_U, V)
    del Z, C, U, V, V_minus_U  # freed for the squarings' products
    for k in range(s.max()):
        live = np.flatnonzero(s > k)
        M = R[live]
        R[live] = M @ M
    return R


def _dense_propagate(A: np.ndarray, A_F: np.ndarray, shifts: np.ndarray,
                     x0: np.ndarray, n: int, dt: float,
                     observe: _StateObserver) -> tuple[int, dict]:
    """``(matvecs, propagator)`` of stepping x by expm((A + delta A_F) dt),
    delta in ``shifts``: one stacked real :func:`_expm` per group of
    members, which overwrites the stack it is handed, and one batched
    product per grid step.  The t = 0 states, then each run of
    ``_DENSE_BLOCK_STEPS`` grid steps, go to ``observe`` in one call."""
    size = _dense_group_size(len(x0))
    for g0 in range(0, len(shifts), size):
        gens = slice(g0, min(g0 + size, len(shifts)))
        P = shifts[gens, None, None] * A_F
        P += A
        P *= dt
        P = _expm(P)
        X = np.repeat(x0[None, :], len(P), axis=0)
        observe(gens, slice(0, 1), X[:, None])
        block = np.empty((len(P), _DENSE_BLOCK_STEPS, len(x0)))
        for k0 in range(1, n, _DENSE_BLOCK_STEPS):
            steps = min(_DENSE_BLOCK_STEPS, n - k0)
            for j in range(steps):
                X = (P @ X[:, :, None])[:, :, 0]
                block[:, j] = X
            observe(gens, slice(k0, k0 + steps), block[:, :steps])
    return len(shifts) * (n - 1), dict(
        method="dense_expm", terms=None, substeps=1,
        outputs_per_expansion=None, half_width=None, matrix_nnz=None)


def _chebyshev_propagate(liouvillian: Liouvillian, A: CSR,
                         A_F: CSR | None, number: np.ndarray,
                         shifts: np.ndarray, x0: np.ndarray, n: int,
                         dt: float, observe: _StateObserver
                         ) -> tuple[int, dict]:
    """``(matvecs, propagator)`` of propagating x0 over n grid points under
    every A + delta A_F, delta in ``shifts``, by Chebyshev propagation under
    one plan, one member at a time.  Each expansion's outputs go to
    ``observe`` as they are made.  A one-member delta = 0 family (``A_F``
    None) multiplies A itself."""
    d2 = A.shape[0]
    box = _numerical_range_box(liouvillian, A, number, shifts)
    c, R, m, coef, K_r, matvecs = _chebyshev_plan(box, dt, n - 1)
    s, K = coef.shape
    for g, delta in enumerate(shifts):
        gens = slice(g, g + 1)
        M = (A if A_F is None
             else _binop(_sparsetools.csr_plus_csr, A,
                         replace(A_F, data=A_F.data * delta)))
        M = _binop(_sparsetools.csr_minus_csr, M,
                   _diagonal_matrix(np.full(d2, c)))
        # equal-length rows run together, so the CSR kernel predicts its
        # row-end branch; the sums are bitwise the same
        B, perm = _rows_by_length(replace(M, data=M.data * (2.0 / R)))
        unperm = np.argsort(perm)
        out, buf = np.empty((s, d2)), np.empty((min(_CHUNK_ROWS, K), d2))
        observe(gens, slice(0, 1), x0[None, None])
        x = x0[perm]
        for j in range(0, n - 1, s):
            # the last expansion may serve r < s grid points with K_r terms
            r = min(s, n - 1 - j)
            rows = out[:r]
            for _ in range(m):  # m > 1 only where s = 1
                _chebyshev_sums(B, x, coef[:r, :K if r == s else K_r], buf,
                                rows)
                x = rows[-1]
            observe(gens, slice(j + 1, j + 1 + r), rows[None, :, unperm])
    return len(shifts) * matvecs, dict(
        method="chebyshev", terms=K, substeps=m, outputs_per_expansion=s,
        half_width=R, matrix_nnz=B.nnz)


class _StateObserver:
    """Integrity checks and observables of G generators' states on one
    grid of n points, fed a block of states at a time; no trajectory is
    kept.  A block X[g, j] = x of rho_g(t_j) = Q x covers the generators
    ``gens`` at the grid points ``times`` (two slices); the row-major
    d x d reshape of Q x is rho^T, Hermitian with rho's eigenvalues.
    Trace drift |x_1 + ... + x_d - 1| is a running maximum over the family.

    Positivity is tracked as each generator's running minimum m_g of
    exactly computed smallest eigenvalues (``eigvalsh``; the first block
    always).  A later block needs no eigenvalues when one batched Cholesky
    factorization of its states minus m_g 1 succeeds: then every state's
    lambda_min exceeds m_g up to the factorization's backward error, a few
    d eps ||rho|| (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed. (2002), ch. 10), so neither the minimum nor the abort can
    change.  Where the factorization fails, the whole block takes
    ``eigvalsh``, so the reported minimum is always an ``eigvalsh``
    value."""

    def __init__(self, t_grid: np.ndarray, Q: CSR, count: int,
                 observables: dict | None):
        d = math.isqrt(Q.shape[0])
        weights = {k: _observable_weights(o)
                   for k, o in (observables or {}).items()}
        self.t_grid, self.d = t_grid, d
        # a row of Q holds at most one real and one imaginary entry: each
        # part of (Q x)_i is coef x[src] (coef 0 where Q has no such entry)
        self.src, self.coef = np.zeros((d * d, 2), int), np.zeros((d * d, 2))
        row = np.repeat(np.arange(d * d), np.diff(Q.indptr))
        part = (Q.data.imag != 0).astype(int)
        self.src[row, part] = Q.indices
        self.coef[row, part] = Q.data.real + Q.data.imag
        self.is_state = {k: s for k, (_, s) in weights.items()}
        self.W = np.array([w for w, _ in weights.values()],
                          dtype=complex).reshape(len(weights), d * d).T
        self.values = np.empty((len(weights), count, len(t_grid)),
                               dtype=complex)
        self.drift = 0.0
        self.min_eig = np.full(count, np.inf)

    def __call__(self, gens: slice, times: slice, X: np.ndarray) -> None:
        d = self.d
        if not np.isfinite(X).all():
            g, j = np.argwhere(~np.isfinite(X))[0, :2]
            t = float(self.t_grid[times.start + j])
            raise EvolutionError(
                f"propagation produced non-finite values in generator "
                f"{gens.start + g} at t={t:.4g} us",
                {"generator": int(gens.start + g), "t": t})
        # vec(rho) = Q x as (real, imaginary) pairs, in the new C-ordered
        # array the complex view needs
        Y = np.take(X, self.src, axis=2)
        Y *= self.coef
        Y = Y.view(complex)[..., 0]
        drift = np.abs(X[:, :, :d].sum(axis=2) - 1.0)
        self.drift = max(self.drift, float(drift.max()))
        self.values[:, gens, times] = (Y @ self.W).transpose(2, 0, 1)
        rhos = Y.reshape(*X.shape[:2], d, d)
        floor = self.min_eig[gens]
        if np.isfinite(floor).all():
            # the certificate: every rho - m_g 1 factorizes
            diag = np.arange(d)
            kept = rhos[:, :, diag, diag]
            rhos[:, :, diag, diag] -= floor[:, None, None]
            try:
                np.linalg.cholesky(rhos)
                return
            except np.linalg.LinAlgError:
                rhos[:, :, diag, diag] = kept
        min_eig = np.linalg.eigvalsh(rhos)[..., 0]
        bad = np.argwhere(min_eig < -POSITIVITY_ABORT)
        if bad.size:
            # blocks arrive in time order: the first bad point of the
            # lowest generator in the block is that generator's first
            g, j = bad[0]
            t = self.t_grid[times.start + j]
            raise EvolutionError(
                f"positivity violated in generator {gens.start + g} at "
                f"t={t:.4g} us (min eig {min_eig[g, j]:.3e})",
                {"generator": int(gens.start + g), "t": float(t),
                 "min_eigenvalue": float(min_eig[g, j]),
                 "trace_drift": float(drift[g, j])})
        np.minimum(self.min_eig[gens], min_eig.min(axis=1),
                   out=self.min_eig[gens])

    def result(self, matvecs: int, propagator: dict) -> EvolutionResult:
        """The family's result, one row per member in each observable, with
        its member matvecs and its one ``propagator`` record."""
        values = {k: self.values[i].real if s else self.values[i]
                  for i, (k, s) in enumerate(self.is_state.items())}
        return EvolutionResult(self.t_grid, values, {
            "max_trace_drift": self.drift,
            "max_hermiticity_defect": 0.0,
            "min_eigenvalue": float(self.min_eig.min()),
            "rhs_evaluations": matvecs,
            "propagator": propagator,
        })


def _start(rho0: np.ndarray, t_grid: np.ndarray, d: int
           ) -> tuple[np.ndarray, np.ndarray, float]:
    """``(t_grid, vec(rho0), dt)`` of a checked grid and a checked d x d
    ``rho0``."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must contain at least two times")
    n = len(t_grid)
    dt = (t_grid[-1] - t_grid[0]) / (n - 1)
    # linspace places each point within a few ulps of |t|
    slack = 1e-9 * abs(dt) + 16 * np.finfo(float).eps * np.abs(t_grid).max()
    if not dt > 0 or np.abs(np.diff(t_grid) - dt).max() > slack:
        raise ValueError("t_grid must be uniform and increasing (a linspace)")
    rho0 = np.asarray(rho0)
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 has shape {rho0.shape}, not {(d, d)}")
    if (np.abs(rho0 - rho0.conj().T).max()
            > _HERMITIAN_RTOL * np.abs(rho0).max()):
        raise ValueError("rho0 is not Hermitian")
    return t_grid, vectorize(rho0), dt


def _commutator_diagonal(number: np.ndarray) -> np.ndarray:
    """Diagonal of -i[N, .] on vec(rho) for N = diag(number): the entry
    rho_ab, at a + d b, goes to -i (n_a - n_b) rho_ab."""
    return -1j * np.subtract.outer(number, number).ravel(order="F")


def evolve_shifted(liouvillian: Liouvillian, number: np.ndarray, shifts,
                   rho0: np.ndarray, t_grid: np.ndarray,
                   observables: dict | None = None) -> EvolutionResult:
    """:func:`evolve` of one ``rho0`` under the generators of H + delta N,
    one per delta in ``shifts``, for the diagonal N = diag(``number``) (a
    frame change, say): L(delta) = L + delta F, F = -i[N, .].

    Every call checks that L preserves Hermiticity, then steps rho's real
    coordinates: a family of more than one member at d^2 <= 1024 runs
    dense, every other call, :func:`evolve` included, one Chebyshev plan
    for all members, run one member at a time (see the module
    docstring).  The result holds each observable as a
    ``(len(shifts), len(t_grid))`` array, a row per delta, and the
    family's diagnostics: the largest ``max_trace_drift``, the
    ``max_hermiticity_defect`` (0.0, see :func:`evolve`), the smallest
    ``min_eigenvalue``, the ``rhs_evaluations`` summed over members and
    one ``propagator`` record.
    Raises ``ValueError`` for no shifts, a ``number`` that is not one
    value per basis state, or non-finite shifts or ``number`` entries
    (naming their rows), besides the errors of :func:`evolve`; an
    :class:`EvolutionError` names the failing ``generator`` (its row) in
    its message and diagnostics.
    """
    shifts = np.asarray(shifts, dtype=float).ravel()
    d = liouvillian.dim
    number = np.asarray(number, dtype=float)
    if number.shape != (d,):
        raise ValueError(f"number has shape {number.shape}, not ({d},)")
    if not len(shifts):
        raise ValueError("no generators to evolve")
    for name, x in (("number", number), ("shifts", shifts)):
        if not np.isfinite(x).all():
            bad = np.flatnonzero(~np.isfinite(x)).tolist()
            raise ValueError(f"{name} must be finite: rows {bad} are "
                             f"{x[bad].tolist()}")
    t_grid, y0, dt = _start(rho0, t_grid, d)
    L, Q = liouvillian.matrix, _hermitian_basis(d)
    # Q^dag X Q on transposes, as scipy forms it with Q^dag in CSC (whose
    # arrays are those of conj(Q)): the record of (Q^dag X Q)^T is
    # Q^T (X^T conj(Q)), for X^T = X the diagonal F
    Qt, Qc = _transpose(Q), replace(Q, data=Q.data.conj())
    At = _matmul(Qt, _matmul(_transpose(L), Qc))
    if (np.abs(At.data.imag).max(initial=0.0)
            > _HERMITIAN_RTOL * np.abs(L.data).max(initial=0.0)):
        raise ValueError("generator does not preserve Hermiticity")
    A_Ft = (_matmul(Qt, _matmul(
                _diagonal_matrix(_commutator_diagonal(number)), Qc))
            if len(shifts) > 1 or shifts[0] else None)
    x0, n = np.zeros(d * d, dtype=complex), len(t_grid)
    _sparsetools.csc_matvec(*Qc.shape, Qc.indptr, Qc.indices, Qc.data, y0,
                            x0)
    x0 = x0.real
    observe = _StateObserver(t_grid, Q, len(shifts), observables)
    del Q, Qt, Qc  # each path keeps only the real generators, in its own format
    if len(shifts) > 1 and d * d <= _DENSE_PROPAGATOR_MAX:
        A, A_F = (X.toarray().T.real.copy() for X in (At, A_Ft))
        run = _dense_propagate(A, A_F, shifts, x0, n, dt, observe)
    else:
        A, A_F = (None if X is None
                  else _transpose(replace(X, data=X.data.real))
                  for X in (At, A_Ft))
        run = _chebyshev_propagate(liouvillian, A, A_F, number, shifts, x0,
                                   n, dt, observe)
    return observe.result(*run)


def evolve(liouvillian: Liouvillian, rho0: np.ndarray,
           t_grid: np.ndarray, observables: dict | None = None
           ) -> EvolutionResult:
    """Propagate rho exactly along the uniform ``t_grid`` (us) by one
    Chebyshev propagation of its real Hermitian-basis coordinates.

    ``rho0`` is the state at ``t_grid[0]``.  Observables may be dense d x d
    arrays (expectation values) or state vectors (fidelities).  Raises
    ``ValueError`` for a scipy sparse observable, a grid that is not a
    uniform increasing ``linspace``, a ``rho0`` that is not d x d or not
    Hermitian (relative ``1e-12``) or an L that does not preserve
    Hermiticity; :class:`EvolutionError` on non-finite values or a
    positivity violation below ``-1e-6``.
    ``diagnostics["min_eigenvalue"]`` is the smallest eigenvalue of rho
    over the grid, from ``eigvalsh`` at t = 0 and on every block a Cholesky
    certificate does not clear (see :class:`_StateObserver`);
    ``max_trace_drift`` is the largest |tr rho - 1|.  States built from
    real coordinates are exactly Hermitian: ``max_hermiticity_defect``
    (|rho - rho^dag|) reads 0.0.  ``diagnostics["propagator"]`` holds the
    ``method`` (``chebyshev``; ``dense_expm`` only for a dense family of
    :func:`evolve_shifted`, whose other entries but m are None), the
    ``terms`` K of an expansion, the ``substeps`` m of a step, the grid
    points s an expansion serves (``outputs_per_expansion``), its
    ``half_width`` R' (1/us) and the nonzeros of the real matrix it
    multiplies (``matrix_nnz``; a family's last member's).
    """
    res = evolve_shifted(liouvillian, np.zeros(liouvillian.dim), [0.0], rho0,
                         t_grid, observables)
    res.observables = {k: v[0] for k, v in res.observables.items()}
    return res


@dataclass
class SteadyState:
    rho: np.ndarray
    residual: float
    method: str
    info: dict = field(default_factory=dict)


def residual_norm(liouvillian: Liouvillian, rho: np.ndarray) -> float:
    """Max-norm of L vec(rho)."""
    return float(np.abs(liouvillian.matrix @ vectorize(rho)).max())


def _no_jump_inverse(liouvillian: Liouvillian
                     ) -> tuple[Callable[[np.ndarray], np.ndarray], dict]:
    """``(solve, info)``: ``solve(y)`` applies M^-1 to a vectorized matrix,
    where M(rho) = -i(G rho - rho G^dag) and G is
    Heff = H - (i/2)(sum r_k O_k^dag O_k + sigma) with its diagonal split
    by eps max|Heff| linspace(-1, 1, d), eps = 1e-4.

    Unsplit, M is the no-jump part S_sigma of L.  The shift sigma > 0
    equals adding the jump operator sqrt(sigma) 1, which leaves L unchanged
    but damps every mode, dark states included.  The split keeps G's
    eigenbasis well conditioned where Heff sits on an exceptional point;
    M only preconditions, so it moves neither the solution nor the kernel.
    One eigendecomposition G = V diag(lam) V^-1 diagonalizes M:
    rho = V X V^dag maps to X_jk -> -i(lam_j - conj(lam_k)) X_jk.
    """
    d = liouvillian.dim
    damping = liouvillian.damping
    sigma = _SHIFT_FRACTION * float(np.trace(damping).real) / d
    if not sigma > 0:
        raise SteadyStateError(
            "steady state is not unique: the generator has no dissipation")
    heff = liouvillian.hamiltonian - 0.5j * (damping + sigma * np.eye(d))
    split = _EIG_SPLIT * np.abs(heff).max() * np.linspace(-1.0, 1.0, d)
    lam, V = np.linalg.eig(heff + np.diag(split))
    W = np.linalg.inv(V)
    Vh, Wh = V.conj().T, W.conj().T
    inv_rate = 1.0 / (-1j * (lam[:, None] - lam.conj()[None, :]))

    def solve(y: np.ndarray) -> np.ndarray:
        Y = unvectorize(y, d)
        return vectorize(V @ ((W @ Y @ Wh) * inv_rate) @ Vh)

    return solve, {"shift": sigma, "cond_V": float(np.linalg.cond(V))}


def _krylov_schur(apply: Callable[[np.ndarray], np.ndarray], v0: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(mu, vecs)``: the two eigenvalues of largest modulus of the linear
    map ``apply``, largest first, and their unit eigenvectors as columns,
    by a thick-restart Arnoldi run started at ``v0`` (Krylov-Schur; Stewart,
    SIAM J. Matrix Anal. Appl. 23, 601 (2001)).

    Each pass grows an orthonormal basis V to m = min(20, n) columns
    (classical Gram-Schmidt, twice), keeping K V = V H + v b^dag.  A Ritz
    pair (theta, V y) has the residual |b^dag y|; both wanted pairs are
    converged at |b^dag y| <= eps max(|theta|, eps^(2/3)), ARPACK's test
    at tol = 0.  Otherwise the next pass starts from the 11 Ritz vectors
    of largest |theta|: for an orthonormal basis Z of their y,
    H Z = Z (Z^dag H Z), so V Z, Z^dag H Z and Z^dag b keep the relation.
    At n <= m the basis spans the space, b is 0 and the pairs are exact.
    Raises :class:`SteadyStateError` when ``_EIGS_MAXITER`` passes leave
    them unconverged."""
    n = len(v0)
    m = min(_KRYLOV_DIM, n)
    eps = np.finfo(float).eps
    V = np.empty((m + 1, n), dtype=complex)
    H = np.zeros((m + 1, m), dtype=complex)  # row m holds b^dag
    V[0] = v0 / np.linalg.norm(v0)
    kept = 0
    for _ in range(_EIGS_MAXITER):
        for j in range(kept, m):
            w = apply(V[j])
            for _twice in range(2):
                h = (V[:j + 1] @ w.conj()).conj()
                w -= h @ V[:j + 1]
                H[:j + 1, j] += h
            if j + 1 < n:
                H[j + 1, j] = beta = np.linalg.norm(w)
                V[j + 1] = w / beta
        theta, Y = np.linalg.eig(H[:m])
        order = np.argsort(-np.abs(theta), kind="stable")
        theta, Y = theta[order], Y[:, order]
        if (np.abs(H[m] @ Y[:, :2])
                <= eps * np.maximum(np.abs(theta[:2]), eps ** (2 / 3))).all():
            return theta[:2], V[:m].T @ Y[:, :2]
        kept = _KRYLOV_KEEP
        Z = np.linalg.qr(Y[:, :kept])[0]
        V[:kept], V[kept] = Z.T @ V[:m], V[m]
        S, b = Z.conj().T @ H[:m] @ Z, H[m] @ Z
        H[:] = 0.0
        H[:kept, :kept], H[kept, :kept] = S, b
    raise SteadyStateError(f"kernel gap unresolved: no Arnoldi convergence "
                           f"in {_EIGS_MAXITER} restarts")


def steady_state(liouvillian: Liouvillian, tol: float = 1e-6) -> SteadyState:
    """Solve L(rho) = 0 with unit trace, matrix-free.

    L = S_sigma + J + sigma with the jump part J(rho) = sum r_k O_k rho
    O_k^dag (see :func:`_no_jump_inverse`), so the jump map
    K = -S_sigma^-1 (J + sigma) = I - S_sigma^-1 L has exactly the kernel
    of L as its fixed points; so does K = I - M^-1 L for the preconditioner
    M, S_sigma with a split diagonal.  One Arnoldi run gives the two
    largest |eigenvalues| of K and their eigenvectors.  Each application of
    K is one sparse L matvec plus four dense d x d products; no d^2 x d^2
    matrix is formed or factorized.  A gap 1 - |mu_2| below ``1e-8``
    raises :class:`SteadyStateError`, as do a run that does not converge
    in ``_EIGS_MAXITER`` restarts, a residual ``||L vec(rho)||_inf``
    above ``tol`` and a smallest eigenvalue of rho below ``-1e-6``.
    Otherwise rho is the eigenvector of mu_1 = 1, scaled to unit trace.
    ``info`` holds ``iterations`` (applications of K), ``kernel_gap``,
    ``shift``, ``cond_V`` (of the split Heff's eigenvectors) and
    ``min_eigenvalue`` (rho's smallest, from ``eigvalsh``).
    """
    d = liouvillian.dim
    n = d * d
    L = liouvillian.matrix
    solve, info = _no_jump_inverse(liouvillian)
    applications = 0

    def apply_k(x: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        return x - solve(L @ x)

    # a fixed start vector keeps the reported gap reproducible
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    mu, vecs = _krylov_schur(apply_k, v0)
    info["iterations"] = applications
    gap = 1.0 - float(np.abs(mu).min())
    info["kernel_gap"] = gap
    if gap < _MIN_KERNEL_GAP:
        raise SteadyStateError(
            f"steady state is not unique: kernel gap 1 - |mu_2| = {gap:.2e}")

    # the eigenvector carries an arbitrary phase: dividing by the complex
    # trace removes it before the Hermitian part is taken
    x = vecs[:, 0]
    x = x / x[np.arange(d) * (d + 1)].sum()
    rho = unvectorize(x, d)
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    res = residual_norm(liouvillian, rho)
    if not res <= tol:
        raise SteadyStateError(
            f"steady-state residual {res:.3e} exceeds tolerance {tol:.1e} "
            f"after {applications} Arnoldi iterations")
    info["min_eigenvalue"] = min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -POSITIVITY_ABORT:
        raise SteadyStateError(
            f"steady state is not positive: min eigenvalue {min_eig:.3e}")
    return SteadyState(rho, res, SYLVESTER_ARNOLDI, info)
