"""Truncated-Fock composite Hilbert spaces and sparse operator algebra.

Conventions used throughout the package:

* A composite space is an ordered tensor product of modes, all qubit modes
  first, then all resonator modes.
* Basis indexing is row-major over mode occupations: for occupations
  ``(n_0, ..., n_{m-1})`` the basis index is ``n_0*s_0 + ... + n_{m-1}``
  where ``s_i`` is the product of the dimensions of all later modes.
* Operators are stored as sparse CSR matrices; entries below
  ``PRUNE_TOL`` are dropped after every algebraic operation.

The truncated lowering operator satisfies ``[n, a] = -a`` exactly except on
the top Fock level of each mode, where the truncation removes the matrix
elements that would connect to level ``dim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

PRUNE_TOL = 1e-15

QUBIT = "qubit"
RESONATOR = "resonator"


class SpaceMismatchError(ValueError):
    """Raised when operands live on different composite spaces."""


@dataclass(frozen=True)
class ModeSpec:
    """One bosonic mode with a Fock-space truncation."""

    label: str
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (QUBIT, RESONATOR):
            raise ValueError(f"mode {self.label!r}: kind must be 'qubit' or 'resonator'")
        if self.dim < 2:
            raise ValueError(f"mode {self.label!r}: dim must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of modes (qubits first, then resonators)."""

    modes: tuple[ModeSpec, ...]

    def __init__(self, modes: Iterable[ModeSpec]):
        object.__setattr__(self, "modes", tuple(modes))
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be unique, got {labels}")
        seen_resonator = False
        for m in self.modes:
            if m.kind == RESONATOR:
                seen_resonator = True
            elif seen_resonator:
                raise ValueError("all qubit modes must precede resonator modes")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.modes)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_qubits(self) -> int:
        return sum(1 for m in self.modes if m.kind == QUBIT)

    @property
    def n_resonators(self) -> int:
        return sum(1 for m in self.modes if m.kind == RESONATOR)

    def index(self, occupations: Sequence[int]) -> int:
        """Basis index of a product state, row-major over occupations."""
        if len(occupations) != len(self.modes):
            raise ValueError(
                f"expected {len(self.modes)} occupations, got {len(occupations)}"
            )
        idx = 0
        for n, mode in zip(occupations, self.modes):
            if not 0 <= n < mode.dim:
                raise ValueError(
                    f"occupation {n} exceeds truncation of mode {mode.label!r} "
                    f"(dim {mode.dim})"
                )
            idx = idx * mode.dim + n
        return idx

    def occupations(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index`."""
        out = []
        for dim in reversed(self.dims):
            out.append(index % dim)
            index //= dim
        return tuple(reversed(out))


@dataclass
class LinearOperator:
    """Sparse complex operator on a :class:`CompositeSpace`."""

    space: CompositeSpace
    matrix: sp.csr_matrix

    def __post_init__(self):
        self.matrix = sp.csr_matrix(self.matrix, dtype=complex)
        d = self.space.total_dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match space dim {d}"
            )
        self._prune()

    def _prune(self):
        m = self.matrix
        if m.nnz:
            m.data[np.abs(m.data) < PRUNE_TOL] = 0.0
            m.eliminate_zeros()

    # -- algebra ---------------------------------------------------------
    def dag(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conj().T.tocsr())

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        _check_same_space(self, other)
        return LinearOperator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        _check_same_space(self, other)
        return LinearOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        _check_same_space(self, other)
        return LinearOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return self * (-1.0)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def hermiticity_defect(self) -> float:
        """Max element of ``|A - A^dag|``."""
        diff = self.matrix - self.matrix.conj().T
        return 0.0 if diff.nnz == 0 else float(np.abs(diff.data).max())


def _check_same_space(a, b):
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError("operands live on different composite spaces")


@dataclass
class DensityMatrix:
    """Dense density matrix with integrity validation."""

    space: CompositeSpace
    matrix: np.ndarray

    TRACE_TOL = 1e-9
    HERM_TOL = 1e-10
    EIG_TOL = -1e-8

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match space dim {d}"
            )

    @classmethod
    def from_state_vector(cls, space: CompositeSpace, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        return cls(space, np.outer(psi, psi.conj()))

    def validate(self, trace_tol: float | None = None, herm_tol: float | None = None,
                 eig_tol: float | None = None) -> None:
        """Raise ``ValueError`` if trace, hermiticity or positivity is violated."""
        trace_tol = self.TRACE_TOL if trace_tol is None else trace_tol
        herm_tol = self.HERM_TOL if herm_tol is None else herm_tol
        eig_tol = self.EIG_TOL if eig_tol is None else eig_tol
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        herm = np.abs(self.matrix - self.matrix.conj().T).max()
        if herm > herm_tol:
            raise ValueError(f"hermiticity defect {herm:.3e} exceeds {herm_tol:.1e}")
        if self.min_eigenvalue() < eig_tol:
            raise ValueError(
                f"minimum eigenvalue {self.min_eigenvalue():.3e} below {eig_tol:.1e}"
            )

    def min_eigenvalue(self) -> float:
        h = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(h)[0])

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


# -- constructors ---------------------------------------------------------

def _local_lowering(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def embed(space: CompositeSpace, mode_index: int, local_matrix: np.ndarray) -> LinearOperator:
    """Tensor a single-mode matrix with identity on all other modes."""
    if not 0 <= mode_index < len(space.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    local = np.asarray(local_matrix, dtype=complex)
    dim = space.modes[mode_index].dim
    if local.shape != (dim, dim):
        raise ValueError(
            f"local matrix shape {local.shape} does not match mode dim {dim}"
        )
    mat = sp.csr_matrix(local)
    left = math.prod(space.dims[:mode_index]) or 1
    right = math.prod(space.dims[mode_index + 1:]) or 1
    full = sp.kron(sp.kron(sp.identity(left, format="csr"), mat, format="csr"),
                   sp.identity(right, format="csr"), format="csr")
    return LinearOperator(space, full)


def lowering_op(space: CompositeSpace, mode_index: int) -> LinearOperator:
    """Truncated annihilation operator of one mode, sqrt(n) sub-diagonal."""
    if not 0 <= mode_index < len(space.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    return embed(space, mode_index, _local_lowering(space.modes[mode_index].dim))


def number_op(space: CompositeSpace, mode_index: int) -> LinearOperator:
    """Occupation-number operator of one mode, diag(0..dim-1)."""
    if not 0 <= mode_index < len(space.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    dim = space.modes[mode_index].dim
    return embed(space, mode_index, np.diag(np.arange(dim, dtype=complex)))


def identity_op(space: CompositeSpace) -> LinearOperator:
    return LinearOperator(space, sp.identity(space.total_dim, format="csr", dtype=complex))


def basis_state(space: CompositeSpace, occupations: Sequence[int]) -> np.ndarray:
    """Unit computational-basis vector for the given occupations."""
    psi = np.zeros(space.total_dim, dtype=complex)
    psi[space.index(occupations)] = 1.0
    return psi


def coherent_state(dim: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state, renormalized within the truncation."""
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    amps = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(alpha) - 0.5 * log_fact
                  ) if alpha != 0 else np.eye(dim, 1, dtype=complex).ravel()
    amps = np.asarray(amps, dtype=complex)
    norm = np.linalg.norm(amps)
    return amps / norm


def product_state(space: CompositeSpace, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of per-mode state vectors."""
    if len(factors) != len(space.modes):
        raise ValueError("one factor per mode required")
    psi = np.ones(1, dtype=complex)
    for f, mode in zip(factors, space.modes):
        f = np.asarray(f, dtype=complex).ravel()
        if f.size != mode.dim:
            raise ValueError(f"factor size {f.size} does not match dim {mode.dim}")
        psi = np.kron(psi, f)
    return psi


# -- functionals ----------------------------------------------------------

def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept modes (indices into ``space.modes``)."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    space = rho.space
    nmodes = len(space.modes)
    if any(not 0 <= k < nmodes for k in keep):
        raise IndexError("keep index out of range")
    dims = space.dims
    arr = rho.matrix.reshape(dims + dims)
    # trace out the complement, highest axis first so indices stay valid
    for k in sorted(set(range(nmodes)) - set(keep), reverse=True):
        nd = arr.ndim // 2
        arr = np.trace(arr, axis1=k, axis2=k + nd)
    kept_modes = [space.modes[k] for k in keep]
    sub = CompositeSpace(kept_modes)
    d = sub.total_dim
    return DensityMatrix(sub, arr.reshape(d, d))


def expectation(op: LinearOperator, rho: DensityMatrix) -> complex:
    """Tr(op @ rho)."""
    if op.space != rho.space:
        raise SpaceMismatchError("operator and state live on different spaces")
    return complex((op.matrix @ rho.matrix).diagonal().sum())


def fidelity_pure(psi: np.ndarray, rho: DensityMatrix, tol: float = 1e-7) -> float:
    """<psi|rho|psi> for a pure target, checked to be real in [0, 1]."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != rho.space.total_dim:
        raise SpaceMismatchError("state vector size does not match space")
    val = np.vdot(psi, rho.matrix @ psi)
    if abs(val.imag) > tol or val.real < -tol or val.real > 1 + tol:
        raise ValueError(f"fidelity {val} outside [0, 1] beyond tolerance")
    return float(min(max(val.real, 0.0), 1.0))
