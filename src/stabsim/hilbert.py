"""Truncated-Fock composite Hilbert spaces and operator constructors.

Conventions used throughout the package:

* A composite space is an ordered tensor product of modes, all qubit modes
  first, then all resonator modes.
* The basis is the occupation table: basis state k has occupation
  ``occupations[i, k]`` of mode i.  :meth:`CompositeSpace.index` is the one
  ordering rule, row-major over the occupations: ``(n_0, ..., n_{m-1})``
  sits at ``n_0*s_0 + ... + n_{m-1}`` where ``s_i`` is the product of the
  dimensions of all later modes.  Only the table and ``index`` read that
  layout: operators and states are built from the table, every off-diagonal
  operator by the one occupation-shift rule, :func:`ladder_op`, and the
  partial trace and its adjoint X (x) 1 by one map, :func:`traced_pairs`.
* Operators and density matrices are dense complex d x d arrays, each
  passed together with the :class:`CompositeSpace` it acts on.  Sparse
  storage is kept for the d^2 x d^2 Liouville-space matrices
  (:mod:`stabsim.lindblad`).

The truncated lowering operator satisfies ``[n, a] = -a`` exactly except on
the top Fock level of each mode, where the truncation removes the matrix
elements that would connect to level ``dim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

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

    @cached_property
    def occupations(self) -> np.ndarray:
        """Occupation table, read-only: entry ``[i, k]`` is mode i's
        occupation in basis state k."""
        table = np.indices(self.dims).reshape(len(self.modes), self.total_dim)
        table.flags.writeable = False
        return table

    @property
    def n_qubits(self) -> int:
        return sum(1 for m in self.modes if m.kind == QUBIT)

    @property
    def n_resonators(self) -> int:
        return sum(1 for m in self.modes if m.kind == RESONATOR)

    def index(self, occupations) -> int | np.ndarray:
        """Basis index of one occupation tuple, or of each column of a table
        of them (one row per mode), row-major over the occupations."""
        occ = np.asarray(occupations)
        if len(occ) != len(self.modes):
            raise ValueError(
                f"expected {len(self.modes)} occupations, got {len(occ)}"
            )
        dims = np.reshape(self.dims, (-1,) + (1,) * (occ.ndim - 1))
        bad = (occ < 0) | (occ >= dims)
        if bad.any():
            # the first offending mode, then its first offending state
            first = tuple(np.argwhere(bad)[0])
            mode = self.modes[first[0]]
            raise ValueError(
                f"occupation {occ[first]} exceeds truncation "
                f"of mode {mode.label!r} (dim {mode.dim})"
            )
        return np.ravel_multi_index(tuple(occ), self.dims)


# -- constructors ---------------------------------------------------------

def ladder_op(space: CompositeSpace, steps: dict[int, int],
              weight: np.ndarray | None = None) -> np.ndarray:
    """Occupation shift by ``steps`` ({mode index: +1 or -1}): each basis
    state whose modes can all move within their truncations goes to the
    moved state, with the bosonic factor sqrt(max(n_i, n_i + s_i)) of each
    mode, multiplied in mode order, times ``weight`` of the state it leaves
    (one value per basis state)."""
    occ, dims, steps = space.occupations, space.dims, sorted(steps.items())
    movable = np.ones(space.total_dim, dtype=bool)
    for i, s in steps:
        if not 0 <= i < len(dims):
            raise IndexError(f"mode index {i} out of range")
        if s not in (-1, 1):
            raise ValueError(f"mode {i}: a step must be +1 or -1, got {s}")
        movable &= (occ[i] > 0) if s < 0 else (occ[i] < dims[i] - 1)
    cols = np.flatnonzero(movable)
    moved = occ[:, cols]
    factor = np.ones(len(cols))
    for i, s in steps:
        moved[i] += s
        factor *= np.sqrt(np.maximum(occ[i, cols], moved[i]))
    if weight is not None:
        factor *= weight[cols]
    d = space.total_dim
    op = np.zeros((d, d), dtype=complex)
    op[space.index(moved), cols] = factor
    return op


def lowering_op(space: CompositeSpace, mode_index: int) -> np.ndarray:
    """Truncated annihilation operator of one mode: weight sqrt(n_i) from
    each basis state with n_i > 0 to the one with n_i - 1."""
    return ladder_op(space, {mode_index: -1})


def number_op(space: CompositeSpace, mode_index: int) -> np.ndarray:
    """Occupation-number operator of one mode, diag(n_i)."""
    if not 0 <= mode_index < len(space.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    return np.diag(space.occupations[mode_index]).astype(complex)


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


# -- functionals ----------------------------------------------------------

@lru_cache(maxsize=8)
def traced_pairs(space: CompositeSpace, keep: tuple[int, ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``(pairs, kept)``, read-only and cached on the space's equality: the
    flat positions in a d x d matrix of the basis-state pairs whose modes
    outside ``keep`` (sorted mode indices) agree, and of their kept-mode
    states in a matrix on the kept modes.  Tr_rest rho sums rho at ``pairs``
    into ``kept``; its adjoint X (x) 1 places X at ``kept`` into ``pairs``."""
    occ = space.occupations
    rest = [i for i in range(len(space.modes)) if i not in keep]
    sub = CompositeSpace(space.modes[k] for k in keep)
    q = sub.index(occ[list(keep)])
    rows, cols = np.nonzero((occ[rest, :, None] == occ[rest, None, :]).all(axis=0))
    pairs, kept = rows * space.total_dim + cols, q[rows] * sub.total_dim + q[cols]
    pairs.flags.writeable = kept.flags.writeable = False
    return pairs, kept


def partial_trace(space: CompositeSpace, rho: np.ndarray, keep: Iterable[int]
                  ) -> np.ndarray:
    """Reduced density matrix of the d x d ``rho`` on the kept modes
    (indices into ``space.modes``), summed through :func:`traced_pairs`."""
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(not 0 <= k < len(space.modes) for k in keep):
        raise IndexError("keep index out of range")
    d = space.total_dim
    rho = np.asarray(rho)
    if rho.shape != (d, d):
        raise ValueError(f"rho has shape {rho.shape}, not {(d, d)}")
    pairs, kept = traced_pairs(space, keep)
    m = math.prod(space.dims[k] for k in keep)
    out = np.zeros(m * m, dtype=rho.dtype)
    np.add.at(out, kept, rho.reshape(-1)[pairs])
    return out.reshape(m, m)
