"""Dense complex linear algebra for truncated number-basis calculations.

States are flat complex vectors and operators are square complex matrices,
both double precision. The thin wrappers pin dimensions at module
boundaries and freeze the underlying arrays, so every value is safe to
share between threads after construction. The dense matrix exponential is
a brute-force reference, in gbstates.oracles.

The public constructors copy what they are given. An array the package has
just built is handed to StateVector._adopt or OperatorMatrix._adopt, which
freeze it and keep it uncopied; its builder keeps no writeable view of it.
A pickled or deep-copied value is rebuilt by that constructor; == is identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen(arr: np.ndarray, ndim: int) -> np.ndarray:
    """arr made read-only, itself when complex128, else a complex128 copy; a ValueError
    unless it is a state (ndim 1) or a square operator (ndim 2) of dimension >= 1."""
    if arr.dtype != np.complex128:
        arr = arr.astype(np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if ndim == 2 and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator must be square, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{('state', 'operator')[ndim - 1]} dimension must be >= 1")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a truncated basis of dimension >= 1."""

    amp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amp", _frozen(np.array(self.amp, dtype=np.complex128), 1))

    @classmethod
    def _adopt(cls, amp: np.ndarray) -> "StateVector":
        """The state holding amp itself, made read-only and uncopied."""
        state = object.__new__(cls)
        object.__setattr__(state, "amp", _frozen(amp, 1))
        return state

    def __reduce__(self):
        return type(self), (self.amp,)

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
        return StateVector._adopt(self.amp / n)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Square complex matrix acting on StateVectors of matching dimension."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128)
        object.__setattr__(self, "entries", _frozen(entries, 2))

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "OperatorMatrix":
        """The operator holding entries itself, made read-only and uncopied."""
        op = object.__new__(cls)
        object.__setattr__(op, "entries", _frozen(entries, 2))
        return op

    def __reduce__(self):
        return type(self), (self.entries,)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.entries + other.entries)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.entries - other.entries)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix._adopt(-self.entries)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.entries * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            _require_same_dim(self.dim, other.dim)
            return OperatorMatrix._adopt(self.entries @ other.entries)
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
    return StateVector._adopt(amp)


def identity(dim: int) -> OperatorMatrix:
    return OperatorMatrix._adopt(np.eye(dim, dtype=np.complex128))


def inner(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    _require_same_dim(u.dim, v.dim)
    return complex(np.vdot(u.amp, v.amp))


def apply(a: OperatorMatrix, v: StateVector) -> StateVector:
    """Matrix-vector product A|v>."""
    _require_same_dim(a.dim, v.dim)
    return StateVector._adopt(a.entries @ v.amp)


def adjoint(a: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix._adopt(a.entries.T.conj())  # conj keeps the F order of the .T view


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    _require_same_dim(a.dim, b.dim)
    return OperatorMatrix._adopt(a.entries @ b.entries - b.entries @ a.entries)

