"""Orthonormal ladder basis interpolating between two orthogonal states.

The Delta states are the eigenvectors of the rotated J3', eigenvalues
m - N/2 for m = 0..N, from the orthogonal partner (m = 0) up to |N, p, phi>
(m = N). The similarity diag(e^(-i n phi)) makes J3' real symmetric
tridiagonal, so one eigh_tridiagonal call gives the ladder: the full basis
in O(N^2) time and memory, the one state of delta_state in O(N) memory.
Each state's first non-negligible amplitude is real positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gbs import GbsParams
from .hilbert import StateVector
from .hp_algebra import _ladder_eigenvectors, _phase_ramp


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Make the first non-negligible amplitude of each column real positive."""
    mags = np.abs(vecs)
    idx = np.argmax(mags > 1e-10 * mags.max(axis=0), axis=0)
    cols = np.arange(vecs.shape[1])
    return vecs * np.conj(vecs[idx, cols] / mags[idx, cols])


def _ladder(prm: GbsParams, m: int | None = None) -> np.ndarray:
    """Delta states m = 0..N, or the state m alone, as the columns of an array."""
    N, p = prm.N, prm.p
    cols = np.arange(N + 1) if m is None else np.array([m])
    if N == 0 or p in (0.0, 1.0):
        # R is the identity (p=1) or an inversion (p=0): the number basis, possibly
        # reversed; at N = 0 the vacuum alone, which has no orthogonal partner
        vecs = np.zeros((N + 1, cols.size), dtype=np.complex128)
        vecs[cols if p == 1.0 else N - cols, np.arange(cols.size)] = 1.0
        return vecs
    vecs = _ladder_eigenvectors(N, p, 1.0 - p, m)
    return _fix_phase(_phase_ramp(N, prm.phi)[:, None] * vecs)


@dataclass(frozen=True)
class DeltaBasis:
    """The N+1 ladder states for a given (N, p, phi), indexed m = 0..N."""

    N: int
    p: float
    phi: float
    states: tuple[StateVector, ...]


def delta_basis(N: int, p: float, phi: float) -> DeltaBasis:
    """The full ladder from one eigensolve; phi is kept as given, bad input is a ValueError."""
    vecs = _ladder(GbsParams(N, p, phi))
    return DeltaBasis(N, p, phi, tuple(StateVector(v) for v in vecs.T))


def delta_state(N: int, m: int, p: float, phi: float) -> StateVector:
    """Ladder state m alone, the eigenvector of J3' for m - N/2, in O(N) memory."""
    prm = GbsParams(N, p, phi)
    if isinstance(m, (bool, np.bool_)) or not 0 <= m <= N or int(m) != m:
        raise ValueError(f"ladder index m={m} must be an integer in [0, {N}]")
    return StateVector(_ladder(prm, int(m))[:, 0])
