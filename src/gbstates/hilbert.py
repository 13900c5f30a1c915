"""Dense complex linear algebra for truncated number-basis calculations.

States are flat complex vectors and operators are square complex matrices,
both double precision. The thin wrappers pin dimensions at module
boundaries and freeze the underlying arrays, so every value is safe to
share between threads after construction. The dense matrix exponential is
a brute-force reference, in gbstates.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a truncated basis of dimension >= 1."""

    amp: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amp, 1)
        if arr.size < 1:
            raise ValueError("state dimension must be >= 1")
        object.__setattr__(self, "amp", arr)

    @property
    def dim(self) -> int:
        return self.amp.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= tol

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amp / n)


@dataclass(frozen=True)
class OperatorMatrix:
    """Square complex matrix acting on StateVectors of matching dimension."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries, 2)
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("operator dimension must be >= 1")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.entries + other.entries)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.entries - other.entries)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(-self.entries)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.entries * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            _require_same_dim(self.dim, other.dim)
            return OperatorMatrix(self.entries @ other.entries)
        if isinstance(other, StateVector):
            return apply(self, other)
        return NotImplemented


def _require_same_dim(d1: int, d2: int) -> None:
    if d1 != d2:
        raise ValueError(f"dimension mismatch: {d1} != {d2}")


def basis_state(dim: int, n: int) -> StateVector:
    """Computational basis vector e_n in a dim-dimensional space."""
    if not 0 <= n < dim:
        raise ValueError(f"basis index {n} outside [0, {dim})")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[n] = 1.0
    return StateVector(amp)


def identity(dim: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(dim, dtype=np.complex128))


def inner(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    _require_same_dim(u.dim, v.dim)
    return complex(np.vdot(u.amp, v.amp))


def apply(a: OperatorMatrix, v: StateVector) -> StateVector:
    """Matrix-vector product A|v>."""
    _require_same_dim(a.dim, v.dim)
    return StateVector(a.entries @ v.amp)


def adjoint(a: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(a.entries.conj().T)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    _require_same_dim(a.dim, b.dim)
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries)

