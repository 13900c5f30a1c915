"""Coherent atomic states of N two-level atoms and their collective algebra.

The atomic parameterisation of the one spin ladder of gbstates.hp_algebra:
collective spin operators on the (2J+1)-dimensional Dicke ladder, coherent
atomic states |theta, varphi>, the Bloch rotation, rotated operators, the
overlap law and the CAS over-complete basis. The Dicke ladder is ordered
|J, -J+n>, n = 0..2J, so a set of coefficients here compares index-by-index
with field amplitudes over |n>. Its operators, rotation and rotated set are
the HP ones at N = 2J under p = cos^2(theta/2), phi = 2*pi - varphi; cas_state
is computed independently. The brute-force references of this side (the 2^N
product space of N atoms and the disentangled rotation) are in
gbstates.oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gbs import BlochAngles, _phased_state, _support_moduli
from .hilbert import OperatorMatrix, StateVector
from .hp_algebra import PseudoSpinSet, RotationSpec, _rotated_set, hp_operators
from .hp_algebra import rotation_operator
from .resolution import SphereQuadrature, _apply_resolution, _resolution_matrix
from .resolution import _warn_if_under_resolved


def _check_half_integer(J) -> int:
    """Validate 2J is a non-negative integer; return it."""
    two_j = 2.0 * J
    if isinstance(J, (bool, np.bool_)) or not (
        0 <= two_j < math.inf and abs(two_j - round(two_j)) <= 1e-12
    ):
        raise ValueError(f"J must be a non-negative half-integer, got {J}")
    return int(round(two_j))


# collective spin operators on one irreducible J block: the HP set at N = 2J
SpinJOperators = PseudoSpinSet


@dataclass(frozen=True)
class CasParams:
    """Spin magnitude and Bloch direction of a coherent atomic state."""

    J: float
    angles: BlochAngles

    def __post_init__(self):
        _check_half_integer(self.J)


def spin_j_operators(J) -> SpinJOperators:
    """Standard ladder operators on the basis |J, -J+n>, n = 0..2J: hp_operators(2J)."""
    return hp_operators(_check_half_integer(J))


def cas_state(params: CasParams) -> StateVector:
    """Coherent atomic state coefficients on the Dicke ladder.

    coeff_n = sqrt(C(2J,n)) cos(theta/2)^n sin(theta/2)^(2J-n) e^(-i n varphi);
    theta = 0 gives the top Dicke state |J,J>, theta = pi the ground |J,-J>.
    Below theta = pi/2 the moduli are the mirrored row of sin^2(theta/2),
    which keeps its digits near theta = 0 where 1 - cos^2(theta/2) loses them.
    """
    two_j = _check_half_integer(params.J)
    half = params.angles.theta / 2.0
    if half < math.pi / 4.0:
        lo, mods = _support_moduli(two_j, math.sin(half) ** 2)
        lo, mods = two_j + 1 - lo - mods.size, mods[::-1]
    else:
        lo, mods = _support_moduli(two_j, math.cos(half) ** 2)
    return _phased_state(two_j + 1, lo, mods, -params.angles.varphi)


def rotation_operator_spin(J, angles: BlochAngles) -> OperatorMatrix:
    """Bloch rotation exp(-xi Jplus + xi* Jminus) with xi = (theta/2) e^(-i varphi),
    the HP rotation_operator at N = 2J."""
    return rotation_operator(_check_half_integer(J), RotationSpec.from_angles(angles))


def rotated_cas_operators(J, angles: BlochAngles) -> SpinJOperators:
    """Primed operators with |theta, varphi> as their top eigenvector.

    Jz'   = Jz cos(theta) + sin(theta) (J+ e^(-i varphi) + J- e^(i varphi)) / 2
    Jplus'= e^(i varphi) (J+ e^(-i varphi) cos^2(theta/2)
            - J- e^(i varphi) sin^2(theta/2) - Jz sin(theta))

    The HP rotated_operators at N = 2J, p = cos^2(theta/2), phi = 2*pi - varphi.
    """
    two_j, half = _check_half_integer(J), angles.theta / 2.0
    eph = cmath.exp(-1j * angles.varphi)
    return _rotated_set(two_j, math.cos(half) ** 2, math.sin(half) ** 2, eph)


def _unit_vector(angles: BlochAngles) -> tuple[float, float, float]:
    sin_t = math.sin(angles.theta)
    return sin_t * math.cos(angles.varphi), sin_t * math.sin(angles.varphi), math.cos(angles.theta)


def cas_overlap_modulus_sq(J, a: BlochAngles, b: BlochAngles) -> float:
    """|<theta,varphi|theta',varphi'>|^2 = cos(Theta/2)^(4J), Theta the great-circle angle,
    as exp(2J log1p(-sin^2(Theta/2))) with sin(Theta/2) = |u_a - u_b| / 2 from the unit
    vectors: a rounded (1 + cos Theta)/2 raised to the power 2J carries 2J times its
    rounding. sin^2 is clamped to at most 1; the result is 1.0 at J = 0."""
    two_j = _check_half_integer(J)
    sin_sq = (math.dist(_unit_vector(a), _unit_vector(b)) / 2.0) ** 2
    return math.exp(two_j * math.log1p(-sin_sq)) if sin_sq < 1.0 else float(two_j == 0)


def cas_identity_resolution(J, quad: SphereQuadrature) -> OperatorMatrix:
    """(2J+1) integral dOmega/(4 pi) |theta,varphi><theta,varphi| on the grid.

    The CAS coefficients are the conjugates of the field amplitudes at N = 2J,
    and the resolution matrix is real, so this is identity_resolution(2J, quad).
    """
    two_j = _check_half_integer(J)
    _warn_if_under_resolved(two_j, quad)
    return OperatorMatrix(_resolution_matrix(two_j, quad))


def cas_expansion_check(J, psi: StateVector, quad: SphereQuadrature) -> StateVector:
    """Reconstruct a Dicke-ladder state through the CAS over-complete basis: the
    real resolution matrix of identity_resolution(2J, quad) applied to psi one kept
    diagonal at a time, as reconstruct does."""
    two_j = _check_half_integer(J)
    if psi.dim != two_j + 1:
        raise ValueError(f"state dimension {psi.dim} must equal 2J+1 = {two_j + 1}")
    _warn_if_under_resolved(two_j, quad)
    return StateVector._adopt(_apply_resolution(two_j, quad, psi.amp))
