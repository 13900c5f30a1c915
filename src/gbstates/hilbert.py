"""Dense complex linear algebra for truncated number-basis calculations.

States are flat complex vectors and operators are square complex matrices,
both double precision. The thin wrappers pin dimensions at module
boundaries and freeze the underlying arrays, so every value is safe to
share between threads after construction. The dense matrix exponential is
a brute-force reference, in gbstates.oracles.

Adoption: StateVector and OperatorMatrix keep, uncopied, an array that is
complex128, read-only, owns its data and has their number of dimensions.
Such an array is taken to be handed over: the constructors of this package
build a row or matrix, set write=False on it and pass it on, which saves a
copy of every state (1.6 MB at N = 1e5). A StateVector also keeps a whole,
contiguous, read-only row of such a 2-d array, so that the N + 1 states of
a ladder share the one matrix they were computed in. A caller who hands an
array over must keep no writeable view of it. Any other input, a writeable
array, another view, another dtype or a list, is copied, so mutating it
later leaves the object unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen_array(values, ndim: int) -> np.ndarray:
    """values itself when it can be adopted (see the module docstring), else a
    read-only complex128 copy; a ValueError unless it has ndim dimensions."""
    if type(values) is np.ndarray and values.dtype == np.complex128 and values.ndim == ndim:
        flags = values.flags
        if not flags.writeable:
            if flags.owndata:
                return values
            # a whole row of a handed-over matrix, which owns the data read-only
            base = values.base
            if ndim == 1 and flags.c_contiguous and type(base) is np.ndarray and base.ndim == 2:
                owner = base.flags
                if owner.owndata and not owner.writeable and values.size == base.shape[1]:
                    return values
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _handed_over(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, so that a StateVector or OperatorMatrix adopts it:
    for an array its caller has just built and keeps no writeable view of."""
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
        return StateVector(_handed_over(self.amp / n))


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
        return OperatorMatrix(_handed_over(self.entries + other.entries))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(_handed_over(self.entries - other.entries))

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(_handed_over(-self.entries))

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(_handed_over(self.entries * scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            _require_same_dim(self.dim, other.dim)
            return OperatorMatrix(_handed_over(self.entries @ other.entries))
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
    return StateVector(_handed_over(amp))


def identity(dim: int) -> OperatorMatrix:
    return OperatorMatrix(_handed_over(np.eye(dim, dtype=np.complex128)))


def inner(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    _require_same_dim(u.dim, v.dim)
    return complex(np.vdot(u.amp, v.amp))


def apply(a: OperatorMatrix, v: StateVector) -> StateVector:
    """Matrix-vector product A|v>."""
    _require_same_dim(a.dim, v.dim)
    return StateVector(_handed_over(a.entries @ v.amp))


def adjoint(a: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(a.entries.conj().T)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    _require_same_dim(a.dim, b.dim)
    return OperatorMatrix(_handed_over(a.entries @ b.entries - b.entries @ a.entries))

