"""Orthonormal ladder basis interpolating between two orthogonal states.

Repeatedly applying the rotated raising operator to |N, 1-p, phi+pi>
climbs through N+1 mutually orthogonal field states, the eigenvectors of
the rotated J3' with eigenvalues m - N/2. The bottom and top rungs are the
two orthogonal generalized binomial states themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gbs import GbsParams, gbs_state, log_binomial, orthogonal_partner
from .hilbert import StateVector
from .hp_algebra import rotated_operators


def _fix_phase(amp: np.ndarray) -> np.ndarray:
    """Make the first non-negligible amplitude real positive."""
    mags = np.abs(amp)
    idx = int(np.argmax(mags > 1e-10 * mags.max()))
    return amp * np.conj(amp[idx] / mags[idx])


@dataclass(frozen=True)
class DeltaBasis:
    """The N+1 ladder states for a given (N, p, phi), indexed m = 0..N."""

    N: int
    p: float
    phi: float
    states: tuple[StateVector, ...]


def delta_basis(N: int, p: float, phi: float) -> DeltaBasis:
    """Build the full ladder by the normalized raising recursion.

    states[0] is the orthogonal-partner state and states[N] the state
    |N, p, phi| itself; every state is renormalized against roundoff and
    phase-fixed so its first nonzero amplitude is real positive.
    """
    if N == 0 or p in (0.0, 1.0):
        # the rotation degenerates to the identity (p=1) or an inversion
        # (p=0): the ladder is the number basis, possibly reversed; at
        # N = 0 it is the vacuum alone, which has no orthogonal partner
        order = range(N + 1) if p == 1.0 else range(N, -1, -1)
        states = []
        for m in order:
            amp = np.zeros(N + 1, dtype=np.complex128)
            amp[m] = 1.0
            states.append(StateVector(amp))
        return DeltaBasis(N, p, phi, tuple(states))

    raising = rotated_operators(N, p, phi).Jplus.entries
    amp = gbs_state(orthogonal_partner(GbsParams(N, p, phi))).amp
    ladder = [amp]
    for m in range(1, N + 1):
        amp = raising @ amp / math.sqrt(m * (N - m + 1))
        amp = amp / np.linalg.norm(amp)
        ladder.append(amp)
    states = tuple(StateVector(_fix_phase(a)) for a in ladder)
    return DeltaBasis(N, p, phi, states)


def delta_state(N: int, m: int, p: float, phi: float) -> StateVector:
    """Single ladder state from the closed form C(N,m)^(-1/2) (Jplus')^m / m!."""
    if not 0 <= m <= N:
        raise ValueError(f"ladder index m={m} outside [0, {N}]")
    if N == 0 or p in (0.0, 1.0):
        return delta_basis(N, p, phi).states[m]
    raising = rotated_operators(N, p, phi).Jplus.entries
    amp = gbs_state(orthogonal_partner(GbsParams(N, p, phi))).amp
    for k in range(1, m + 1):
        amp = raising @ amp / k  # accumulates (Jplus')^m / m!
    amp = amp * math.exp(-0.5 * log_binomial(N, m))
    amp = amp / np.linalg.norm(amp)
    return StateVector(_fix_phase(amp))
