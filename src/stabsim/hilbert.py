"""Truncated-Fock composite Hilbert spaces and sparse operator constructors.

Conventions used throughout the package:

* A composite space is an ordered tensor product of modes, all qubit modes
  first, then all resonator modes.
* Basis indexing is row-major over mode occupations: for occupations
  ``(n_0, ..., n_{m-1})`` the basis index is ``n_0*s_0 + ... + n_{m-1}``
  where ``s_i`` is the product of the dimensions of all later modes.
* Operators are ``scipy.sparse`` CSR matrices, passed together with the
  :class:`CompositeSpace` they act on.

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

QUBIT = "qubit"
RESONATOR = "resonator"


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
    def occupations(self) -> np.ndarray:
        """Occupation table: entry ``[i, k]`` is mode i's occupation in
        basis state k."""
        return np.indices(self.dims).reshape(len(self.modes), -1)

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


@dataclass
class DensityMatrix:
    """Dense density matrix on a :class:`CompositeSpace`."""

    space: CompositeSpace
    matrix: np.ndarray

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


# -- constructors ---------------------------------------------------------

def _local_lowering(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def embed(space: CompositeSpace, mode_index: int, local_matrix: np.ndarray
          ) -> sp.csr_matrix:
    """Tensor a single-mode matrix with identity on all other modes.

    kron(1_left, M, 1_right) has M_ij at row (l dim + i) right + r, column
    (l dim + j) right + r for every l < left and r < right: one triplet
    set, converted to CSR once.
    """
    if not 0 <= mode_index < len(space.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    local = np.asarray(local_matrix, dtype=complex)
    dim = space.modes[mode_index].dim
    if local.shape != (dim, dim):
        raise ValueError(
            f"local matrix shape {local.shape} does not match mode dim {dim}"
        )
    i, j = np.nonzero(local)
    left = math.prod(space.dims[:mode_index])
    right = math.prod(space.dims[mode_index + 1:])
    shape = (left, len(i), right)
    block = dim * np.arange(left)[:, None, None]
    r = np.arange(right)
    rows = ((block + i[:, None]) * right + r).ravel()
    cols = ((block + j[:, None]) * right + r).ravel()
    vals = np.broadcast_to(local[i, j][:, None], shape).ravel()
    d = space.total_dim
    return sp.csr_matrix((vals, (rows, cols)), shape=(d, d))


def lowering_op(space: CompositeSpace, mode_index: int) -> sp.csr_matrix:
    """Truncated annihilation operator of one mode, sqrt(n) sub-diagonal."""
    if not 0 <= mode_index < len(space.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    return embed(space, mode_index, _local_lowering(space.modes[mode_index].dim))


def number_op(space: CompositeSpace, mode_index: int) -> sp.csr_matrix:
    """Occupation-number operator of one mode, diag(0..dim-1)."""
    if not 0 <= mode_index < len(space.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    dim = space.modes[mode_index].dim
    return embed(space, mode_index, np.diag(np.arange(dim, dtype=complex)))


def basis_state(space: CompositeSpace, occupations: Sequence[int]) -> np.ndarray:
    """Unit computational-basis vector for the given occupations."""
    psi = np.zeros(space.total_dim, dtype=complex)
    psi[space.index(occupations)] = 1.0
    return psi


def coherent_state(dim: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state, renormalized within the truncation (the
    weight renormalized away is :func:`coherent_tail`)."""
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    # the complex log: np.log of a negative float is NaN
    amps = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha))
                  - 0.5 * log_fact
                  ) if alpha != 0 else np.eye(dim, 1, dtype=complex).ravel()
    amps = np.asarray(amps, dtype=complex)
    norm = np.linalg.norm(amps)
    return amps / norm


def coherent_tail(dim: int, alpha: complex) -> float:
    """Norm that truncating the coherent state |alpha> to ``dim`` levels
    drops: the Poisson tail P(n >= dim) at mean |alpha|^2."""
    x = float(abs(alpha)) ** 2
    kept = math.exp(-x) * sum(x ** n / math.factorial(n) for n in range(dim))
    return max(0.0, 1.0 - kept)


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

