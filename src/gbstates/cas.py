"""Coherent atomic states of N two-level atoms and their collective algebra.

Collective spin operators on the (2J+1)-dimensional Dicke ladder, the
same operators on the full 2^N product space as a brute-force oracle,
coherent atomic states |theta, varphi>, the disentangling theorem for the
Bloch rotation, rotated operators, the overlap law and the CAS
over-complete basis. The Dicke ladder is ordered |J, -J+n>, n = 0..2J, so
a set of coefficients here compares index-by-index with field amplitudes
over |n>. Its operators, rotation and rotated set are the HP ones of
gbstates.hp_algebra at N = 2J under p = cos^2(theta/2), phi = 2*pi - varphi;
cas_state and the oracles are computed independently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gbs import BlochAngles, _phased_row, binomial_amplitudes, log_binomial
from .hilbert import OperatorMatrix, StateVector
from .hp_algebra import PseudoSpinSet, RotationSpec, _rotated_set, hp_operators
from .hp_algebra import rotation_operator
from .resolution import SphereQuadrature, _apply_resolution, _resolution_matrix
from .resolution import _warn_if_under_resolved

MAX_TENSOR_ATOMS = 12


def _check_half_integer(J) -> int:
    """Validate 2J is a non-negative integer; return it."""
    two_j = 2.0 * J
    if two_j < 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ValueError(f"J must be a non-negative half-integer, got {J}")
    return int(round(two_j))


# collective spin operators on one irreducible J block: the HP set at N = 2J
SpinJOperators = PseudoSpinSet


@dataclass(frozen=True)
class TensorAtomSpace:
    """Collective operators on the full 2^N product space of N atoms."""

    N_atoms: int
    Jx: OperatorMatrix
    Jy: OperatorMatrix
    Jz: OperatorMatrix
    Jplus: OperatorMatrix
    Jminus: OperatorMatrix
    Jsq: OperatorMatrix


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


def _kron_chain(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@lru_cache(maxsize=None)
def tensor_atom_space(N_atoms: int) -> TensorAtomSpace:
    """Collective operators built atom by atom from Pauli matrices.

    Basis index bits encode the atoms (bit set = excited), so the
    all-ground product state sits at index 0. Capped at 12 atoms: this is
    the brute-force oracle, not the production path.
    """
    if not 1 <= N_atoms <= MAX_TENSOR_ATOMS:
        raise ValueError(f"N_atoms must lie in [1, {MAX_TENSOR_ATOMS}], got {N_atoms}")
    eye = np.eye(2, dtype=np.complex128)
    s_plus = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |e><g|
    s_z = np.diag([-0.5, 0.5]).astype(np.complex128)
    dim = 2 ** N_atoms
    jplus = np.zeros((dim, dim), dtype=np.complex128)
    jz = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(N_atoms):
        factors_p = [eye] * N_atoms
        factors_p[j] = s_plus
        jplus += _kron_chain(factors_p)
        factors_z = [eye] * N_atoms
        factors_z[j] = s_z
        jz += _kron_chain(factors_z)
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = (jplus - jminus) / 2j
    jsq = jx @ jx + jy @ jy + jz @ jz
    return TensorAtomSpace(
        N_atoms,
        OperatorMatrix(jx),
        OperatorMatrix(jy),
        OperatorMatrix(jz),
        OperatorMatrix(jplus),
        OperatorMatrix(jminus),
        OperatorMatrix(jsq),
    )


def dicke_states_tensor(N_atoms: int) -> list[StateVector]:
    """Dicke ladder |J=N/2, -J+n> in the 2^N product space.

    Built by the defining prescription (1/n!) C(2J,n)^(-1/2) Jplus^n on the
    all-ground state, then renormalized against roundoff.
    """
    space = tensor_atom_space(N_atoms)
    jplus = space.Jplus.entries
    two_j = N_atoms
    vec = np.zeros(2 ** N_atoms, dtype=np.complex128)
    vec[0] = 1.0  # |gg...g>
    states = [StateVector(vec)]
    raw = vec
    for n in range(1, two_j + 1):
        raw = jplus @ raw
        scale = math.exp(-math.lgamma(n + 1) - 0.5 * log_binomial(two_j, n))
        state = raw * scale
        states.append(StateVector(state / np.linalg.norm(state)))
    return states


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
        mods = binomial_amplitudes(two_j, math.sin(half) ** 2)[::-1]
    else:
        mods = binomial_amplitudes(two_j, math.cos(half) ** 2)
    amp = _phased_row(mods, -1j * params.angles.varphi)
    amp /= np.linalg.norm(amp)
    return StateVector(amp)


def rotation_operator_spin(J, angles: BlochAngles) -> OperatorMatrix:
    """Bloch rotation exp(-xi Jplus + xi* Jminus) with xi = (theta/2) e^(-i varphi),
    the HP rotation_operator at N = 2J."""
    return rotation_operator(_check_half_integer(J), RotationSpec.from_angles(angles))


def _nilpotent_exp(x, ladder, order: int):
    """exp(x * ladder) for a nilpotent mpmath ladder matrix, by the exact
    terminating series."""
    import mpmath as mp  # deferred: only this oracle needs it, and it slows import

    dim = ladder.rows
    out = mp.eye(dim)
    term = mp.eye(dim)
    for k in range(1, order + 1):
        term = term * ladder * (x / k)
        out += term
    return out


def disentangled_rotation(J, angles: BlochAngles) -> OperatorMatrix:
    """The same rotation factored as e^(tau* J-) e^(-ln(1+|tau|^2) Jz) e^(-tau J+).

    tau = tan(theta/2) e^(-i varphi) diverges at theta = pi, where the
    factorization breaks down; use rotation_operator_spin there instead.

    The three factors hold entries up to (1+|tau|^2)^J that cancel down to
    order-one results, which for large theta wipes out double precision
    entirely (~26 decimal digits lost at theta = 3, J = 5). The product is
    therefore taken in extended precision sized to the cancellation and
    rounded to complex128 at the end.
    """
    if abs(angles.theta - math.pi) < 1e-12:
        raise ValueError(
            "the disentangled factorization diverges at theta = pi; "
            "use rotation_operator_spin"
        )
    import mpmath as mp  # deferred: only this oracle needs it, and it slows import

    two_j = _check_half_integer(J)
    dim = two_j + 1
    tau_abs2 = math.tan(angles.theta / 2.0) ** 2
    digits = 30 + int(two_j * math.log10(1.0 + tau_abs2)) + two_j
    with mp.workdps(digits):
        tau = mp.tan(mp.mpf(angles.theta) / 2) * mp.expjpi(-mp.mpf(angles.varphi) / mp.pi)
        jplus = mp.zeros(dim)
        jminus = mp.zeros(dim)
        for k in range(two_j):
            elem = mp.sqrt(mp.mpf((two_j - k) * (k + 1)))
            jplus[k + 1, k] = elem
            jminus[k, k + 1] = elem
        middle = mp.zeros(dim)
        log_term = mp.log(1 + abs(tau) ** 2)
        for n in range(dim):
            middle[n, n] = mp.e ** (-(n - mp.mpf(two_j) / 2) * log_term)
        product = (
            _nilpotent_exp(mp.conj(tau), jminus, two_j)
            * middle
            * _nilpotent_exp(-tau, jplus, two_j)
        )
        out = np.array(
            [[complex(product[i, j]) for j in range(dim)] for i in range(dim)]
        )
    return OperatorMatrix(out)


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


def cas_overlap_modulus_sq(J, a: BlochAngles, b: BlochAngles) -> float:
    """|<theta,varphi|theta',varphi'>|^2 = cos(Theta/2)^(4J), Theta the great-circle angle."""
    two_j = _check_half_integer(J)
    cos_big = math.cos(a.theta) * math.cos(b.theta) + math.sin(a.theta) * math.sin(
        b.theta
    ) * math.cos(a.varphi - b.varphi)
    cos_big = min(1.0, max(-1.0, cos_big))
    return ((1.0 + cos_big) / 2.0) ** two_j  # cos^2(Theta/2)^(2J)


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
    return StateVector(_apply_resolution(two_j, quad, psi.amp))
