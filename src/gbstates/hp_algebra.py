"""Pseudo-angular-momentum operators on the truncated Fock space.

The Holstein-Primakoff construction turns the first N+1 number states into
a spin-N/2 ladder: J3 = a'a - N/2, Jplus = a' sqrt(N - a'a) and its
adjoint. A generalized binomial state is the rotated top rung of that
ladder, so the rotation operator, the rotated (primed) operator set and
the operator linking two such states all live here.

The atomic side (gbstates.cas) uses this ladder as its Dicke ladder, J = N/2:
its operators, rotation and rotated set are the ones here under the paper's
map p = cos^2(theta/2), phi = 2*pi - varphi.

The rotation is computed from one eigensolve of the rotated J3', which is
real symmetric tridiagonal after a diagonal phase similarity (the exact
diagonalisation route to Wigner's d-matrix); the Delta basis of
gbstates.delta_basis comes from the same solve. The operator linking two
states is one rotation too, composed on the spin-1/2 matrices. The dense
matrix exponential _ladder_rotation is kept as the oracle for the tests
and verify, and for composition_residual, whose composite angle may
exceed pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gbs import BlochAngles, GbsParams, params_to_angles
from .hilbert import OperatorMatrix, adjoint, expm, identity


@dataclass(frozen=True)
class PseudoSpinSet:
    """J3, Jplus, Jminus on the (N+1)-dim ladder; J = N/2 and Jz = J3 are the atomic names."""

    N: int
    J3: OperatorMatrix
    Jplus: OperatorMatrix
    Jminus: OperatorMatrix

    @property
    def J(self) -> float:
        return self.N / 2.0

    @property
    def Jz(self) -> OperatorMatrix:
        return self.J3

    @property
    def Jsq(self) -> OperatorMatrix:
        """The Casimir J3^2 + (Jplus Jminus + Jminus Jplus)/2, computed on each read."""
        j3, jp, jm = self.J3, self.Jplus, self.Jminus
        return j3 @ j3 + 0.5 * (jp @ jm + jm @ jp)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation parameters eta = (theta/2) e^(-i varphi), tau = tan(theta/2) e^(-i varphi)."""

    angles: BlochAngles
    eta: complex
    tau: complex

    @classmethod
    def from_angles(cls, angles: BlochAngles) -> "RotationSpec":
        half = angles.theta / 2.0
        axis_phase = cmath.exp(-1j * angles.varphi)
        return cls(angles, half * axis_phase, math.tan(half) * axis_phase)

    @classmethod
    def from_gbs(cls, params: GbsParams) -> "RotationSpec":
        return cls.from_angles(params_to_angles(params))


def hp_operators(N: int) -> PseudoSpinSet:
    """Holstein-Primakoff operator set for maximum excitation N."""
    if N < 0:
        raise ValueError(f"max excitation must be non-negative, got {N}")
    dim = N + 1
    n = np.arange(dim)
    j3 = OperatorMatrix(np.diag((n - N / 2.0).astype(np.complex128)))
    up = np.zeros((dim, dim), dtype=np.complex128)
    k = np.arange(N)
    up[k + 1, k] = np.sqrt((N - k) * (k + 1.0))
    jplus = OperatorMatrix(up)
    return PseudoSpinSet(N, j3, jplus, adjoint(jplus))


def _ladder_rotation(N: int, eta: complex) -> OperatorMatrix:
    """exp(-eta Jplus + eta* Jminus) on the (N+1)-dim ladder, for any complex eta,
    by a dense matrix exponential: the oracle for rotation_operator."""
    ops = hp_operators(N)
    return expm((-eta) * ops.Jplus + np.conj(eta) * ops.Jminus)


def rotation_operator(N: int, spec: RotationSpec) -> OperatorMatrix:
    """Bloch rotation exp(-eta Jplus + eta* Jminus) on the (N+1)-dim ladder.

    R = D R0 D^(-1) with D = diag(e^(-i n varphi)) and R0 the real rotation
    at varphi = 0. Column m of R0 is the eigenvector of the tridiagonal T of
    _rotated_j3_bands for m - N/2, its sign fixed by the ladder: column N is
    the non-negative |N, p, 0>, and <R0_(m+1)| M |R0_m> > 0 for the real
    banded M = R0 J+ R0^T = p J+ - q J- - 2 sqrt(pq) J3. So column N of R is
    e^(i N varphi) |N, p, 2*pi - varphi>. p = cos^2(theta/2) and
    q = sin^2(theta/2) are both taken from theta, which keeps the digits of
    q near theta = 0. O(N^2) time and memory beyond the eigensolve.
    """
    half = spec.angles.theta / 2.0
    if N == 0 or half == 0.0:
        return identity(N + 1)
    p, q = math.cos(half) ** 2, math.sin(half) ** 2
    v = _ladder_eigenvectors(N, p, q)
    up = np.sqrt((N - np.arange(N)) * (np.arange(N) + 1.0))[:, None]
    j3 = (np.arange(N + 1) - N / 2.0)[:, None]
    # <v_(m+1)| M |v_m> for m = 0..N-1, each O(N)
    link = (
        p * np.sum(v[1:, 1:] * up * v[:-1, :-1], axis=0)
        - q * np.sum(v[:-1, 1:] * up * v[1:, :-1], axis=0)
        - 2.0 * math.sqrt(p * q) * np.sum(v[:, 1:] * j3 * v[:, :-1], axis=0)
    )
    signs = np.append(np.cumprod(np.sign(link)[::-1])[::-1], 1.0) * np.sign(v[:, N].sum())
    ramp = np.conj(_phase_ramp(N, spec.angles.varphi))  # e^(i n phi), phi = 2*pi - varphi
    return OperatorMatrix(ramp[:, None] * (v * signs) * np.conj(ramp))


def rotated_operators(N: int, p: float, phi: float) -> PseudoSpinSet:
    """Primed operator set whose top-rung eigenvector is |N, p, phi>.

    Built literally from the closed-form combinations

        J3'    = (2p-1) J3 + sqrt(p(1-p)) (e^(i phi) J+ + e^(-i phi) J-)
        Jplus' = e^(-i phi) (p e^(i phi) J+ - (1-p) e^(-i phi) J- - 2 sqrt(p(1-p)) J3)

    which coincide with conjugation of the unprimed set by the rotation
    operator at the matching Bloch angles.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return _rotated_set(N, p, 1.0 - p, cmath.exp(1j * phi))


def _rotated_set(N: int, p: float, q: float, ephi: complex) -> PseudoSpinSet:
    """rotated_operators with q = 1 - p and ephi = e^(i phi) given, so a caller holding
    theta passes q = sin^2(theta/2): near p = 1, 1 - p has lost those digits."""
    ops = hp_operators(N)
    diag, off = _rotated_j3_bands(N, p, q)
    j3p = np.diag(diag + 0j) + np.diag(ephi * off, -1) + np.diag(np.conj(ephi) * off, 1)
    jplusp = np.conj(ephi) * (
        p * ephi * ops.Jplus
        - q * np.conj(ephi) * ops.Jminus
        - 2.0 * math.sqrt(p * q) * ops.J3
    )
    return PseudoSpinSet(N, OperatorMatrix(j3p), jplusp, adjoint(jplusp))


def _rotated_j3_bands(N: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the real symmetric T with J3' = D T D^(-1), D = diag(e^(i n phi))."""
    n, k = np.arange(N + 1), np.arange(N)
    return (2.0 * p - 1.0) * (n - N / 2.0), math.sqrt(p * q) * np.sqrt((N - k) * (k + 1.0))


def _ladder_eigenvectors(N: int, p: float, q: float, m: int | None = None) -> np.ndarray:
    """Real eigenvectors of T (_rotated_j3_bands) as columns, eigenvalue m - N/2 in
    column m, for m = 0..N or for the given m alone; each column's sign is arbitrary.
    N >= 1: eigh_tridiagonal takes no empty matrix.
    """
    from scipy.linalg import eigh_tridiagonal  # deferred: the vector paths never need scipy

    select = {} if m is None else {"select": "i", "select_range": (m, m)}
    return eigh_tridiagonal(*_rotated_j3_bands(N, p, q), **select)[1]  # ascending m


def _phase_ramp(N: int, phi: float) -> np.ndarray:
    """e^(i n phi) for n = 0..N, from a 24-bit head of phi whose products n * head
    are exact for N < 2^29: rounding n * phi would shift each phase by up to N phi eps."""
    n, head = np.arange(N + 1.0), float(np.float32(phi))
    return np.exp(1j * (n * head)) * np.exp(1j * (n * (phi - head)))


def link_operator(N: int, a: GbsParams, b: GbsParams) -> OperatorMatrix:
    """Unitary T = R(b) R(a)^(-1) carrying |N,p,phi> onto |N,p',phi'>."""
    if a.N != N or b.N != N:
        raise ValueError(f"parameter sets must share N={N}, got {a.N} and {b.N}")
    return _link(N, params_to_angles(a), params_to_angles(b))


def _spin_half(angles: BlochAngles) -> np.ndarray:
    """The rotation on the two-rung ladder n = 0, 1:
    [[c, e^(i varphi) s], [-e^(-i varphi) s, c]] with c, s = cos, sin(theta/2)."""
    half = angles.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    e = cmath.exp(1j * angles.varphi)
    return np.array([[c, e * s], [-e.conjugate() * s, c]])


def _link(N: int, a: BlochAngles, b: BlochAngles) -> OperatorMatrix:
    """R(b) R(a)^(-1) as one rotation: the spin-N/2 representation is a homomorphism,
    so the product is composed on the spin-1/2 matrices U = U(b) U(a)^+ and lifted once.

    U = diag(e^(i alpha/2), e^(-i alpha/2)) R(beta, phi_c), which lifts to
    e^(i (alpha/2)(N - 2n)) times row n of R(beta, phi_c). alpha/2 rather than
    alpha carries the sign of U that an odd N sees. One eigensolve and O(N^2)
    work, against two eigensolves and an (N+1)^3 product.
    """
    u = _spin_half(b) @ _spin_half(a).conj().T
    c, s = abs(u[0, 0]), abs(u[0, 1])
    half_alpha = cmath.phase(u[0, 0]) if c > 0.0 else 0.0
    beta = 2.0 * math.atan2(s, c)
    phi_c = cmath.phase(u[0, 1]) - half_alpha
    r = rotation_operator(N, RotationSpec.from_angles(BlochAngles(beta, phi_c)))
    ramp = _phase_ramp(N, half_alpha)
    row_phase = ramp[::-1] * np.conj(ramp)  # e^(i (alpha/2)(N - n)) e^(-i (alpha/2) n)
    return OperatorMatrix(row_phase[:, None] * r.entries)


def composition_angles(a: BlochAngles, b: BlochAngles) -> tuple[float, float, complex]:
    """Closed-form composite angles (Theta, Phi) and scalar phase for R(b) R(a)^(-1).

    Theta = sqrt(theta^2 + theta'^2 - 2 theta theta' cos(varphi - varphi')),
    tan(Phi) from the vector difference of the two axis directions, and
    phase = exp(i (theta theta'/4) sin(varphi - varphi')). The formula is a
    small-angle composition law: exact for coincident or collinear axes,
    approximate otherwise. Use composition_residual to quantify the gap.
    """
    th, ph = a.theta, a.varphi
    thp, php = b.theta, b.varphi
    arg = th * th + thp * thp - 2.0 * th * thp * math.cos(ph - php)
    big_theta = math.sqrt(max(arg, 0.0))
    y = thp * math.sin(php) - th * math.sin(ph)
    x = thp * math.cos(php) - th * math.cos(ph)
    big_phi = math.atan2(y, x) if (x != 0.0 or y != 0.0) else 0.0
    phase = cmath.exp(1j * (th * thp / 4.0) * math.sin(ph - php))
    return big_theta, big_phi, phase


def composition_residual(N: int, a: BlochAngles, b: BlochAngles) -> float:
    """Frobenius distance between T = R(b) R(a)^(-1) and phase * R(Theta, Phi).

    Diagnostic only: reports how far the closed-form composition law is
    from the exact operator product for the given pair of directions.
    """
    t = _link(N, a, b)
    big_theta, big_phi, phase = composition_angles(a, b)
    # Theta may exceed pi, so pass eta directly instead of round-tripping
    # through BlochAngles validation
    r_comp = _ladder_rotation(N, (big_theta / 2.0) * cmath.exp(-1j * big_phi))
    return float(np.linalg.norm(t.entries - phase * r_comp.entries))
