"""Pseudo-angular-momentum operators on the truncated Fock space.

The Holstein-Primakoff construction turns the first N+1 number states into
a spin-N/2 ladder: J3 = a'a - N/2, Jplus = a' sqrt(N - a'a) and its
adjoint. A generalized binomial state is the rotated top rung of that
ladder, so the rotation operator, the rotated (primed) operator set and
the operator linking two such states all live here.

The atomic side (gbstates.cas) uses this ladder as its Dicke ladder, J = N/2:
its operators, rotation and rotated set are the ones here under the paper's
map p = cos^2(theta/2), phi = 2*pi - varphi.

One set of real bands carries the whole ladder (_ladder_bands): after a
diagonal phase similarity the rotated J3' is a real symmetric tridiagonal T
and e^(i phi) Jplus' a real banded M, and hp_operators is the set at p = 1.
Every rotation is the spin-N/2 image of one 2 x 2 SU(2) matrix (_lift): its
real core is Wigner's d(theta) = e^(-i theta Jy), a Fourier sum over the
eigenbasis of Jx kept for the most recent N (_wigner_d; X. M. Feng et al.,
Phys. Rev. E 92, 043307 (2015)), its phases two ramps. The rotation operator,
the operator linking two states (composed on the spin-1/2 matrices) and the
composite rotation of composition_residual, whose angle may exceed pi, are all
such lifts; the Delta basis of gbstates.delta_basis is d(theta). The dense
matrix exponential of the generator, the reference for every rotation here,
is gbstates.oracles.rotation_expm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gbs import BlochAngles, GbsParams, _check_photon_number, _check_probability
from .gbs import _phase_ramp, normalize_angle, params_to_angles
from .hilbert import OperatorMatrix, adjoint


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
    """Holstein-Primakoff operator set for maximum excitation N: the rotated set at p = 1."""
    return _rotated_set(N, 1.0, 0.0, 1.0)


def rotation_operator(N: int, spec: RotationSpec) -> OperatorMatrix:
    """Bloch rotation exp(-eta Jplus + eta* Jminus) on the (N+1)-dim ladder.

    The spin-N/2 image of the spin-1/2 rotation at the same angles (_lift). Column N
    of R is e^(i N varphi) |N, p, 2*pi - varphi> with p = cos^2(theta/2).
    """
    return _lift(N, spec.angles.theta, spec.angles.varphi)


def _lift(N: int, theta: float, phi: float, half_alpha: float = 0.0) -> OperatorMatrix:
    """The spin-N/2 image of diag(e^(i a), e^(-i a)) [[c, e^(i phi) s], [-e^(-i phi) s, c]],
    c, s = cos, sin(theta/2), a = half_alpha (not 2a: an odd N sees the sign): entry (n, m) is
    e^(i a (N - 2n)) e^(-i n phi) d[n, m] e^(i m phi), d the real _wigner_d(N, theta)."""
    N = _check_photon_number(N)
    tilt = _phase_ramp(half_alpha, 0, np.empty(N + 1, dtype=np.complex128))
    row = tilt[::-1] * np.conj(tilt)  # e^(i a (N - 2n))
    if N == 0 or theta == 0.0:
        out = np.diag(row)
    else:
        col = _phase_ramp(phi, 0, np.empty(N + 1, dtype=np.complex128))
        out = (row * np.conj(col))[:, None] * _wigner_d(N, theta)
        out *= col
    return OperatorMatrix._adopt(out)


@lru_cache(maxsize=1)
def _jx_basis(N: int) -> np.ndarray:
    """Eigenvectors X_k of Jx = (J+ + J-)/2 for mu_k = k - N/2 >= 0 (X_(N-k) = +-(-1)^a X_k),
    row a times i^(-a) (odd a: i^(1-a)), even rows first: one read-only array, most recent N.
    dstein (inverse iteration) takes the exact mu_k: within 1e-15 of the exact X at N = 192, a
    full eigensolve within 7e-15. It reorthogonalises eigenvalues within 1e-3 of the norm N/2,
    so each call takes every (N // 1000 + 1)-th mu_k, not one O(N^3) cluster past N = 2000."""
    from scipy.linalg.lapack import dstein  # deferred: the vector paths never need scipy
    diag, off = _ladder_bands(N, 0.5, 0.5)[0]
    mu, step, even = np.arange(N // 2 + 1) + (N % 2) / 2.0, N // 1000 + 1, N // 2 + 1
    out, one_block = np.empty((N + 1, mu.size)), (np.ones(N + 1, np.int32), np.full(N + 1, N + 1))
    for i in range(step):  # rows go straight to their parity block: no whole-basis temporary
        z, info = dstein(diag, off, mu[i::step], *one_block)
        if info != 0:
            raise ArithmeticError(f"dstein: {info} eigenvectors of Jx failed at N={N}")
        out[:even, i::step], out[even:, i::step] = z[0::2], z[1::2]
    out[1:even:2] *= -1.0  # i^(-a) is -1 at a = 2 mod 4, i^(1-a) at a = 3 mod 4
    out[even + 1 :: 2] *= -1.0
    out.setflags(write=False)
    return out


def _wigner_d(N: int, theta: float) -> np.ndarray:
    """Wigner's real d(theta) = e^(-i theta Jy), N >= 1, as a new array: Jy is Jx turned by
    pi/2 about z, so d[a, b] = Re[i^(b-a) sum_k X_ak X_bk e^(-i theta mu_k)]. Split by parity
    and folded onto mu_k >= 0, three half-size real products against 2 cos(theta mu) and
    2 sin(theta mu), from the ramp of theta/2 at n = 2 mu. Column m is the eigenvector of T
    at p - q = cos theta for m - N/2, with the ladder's signs whatever the signs of X_k."""
    even, odd = np.split(_jx_basis(N), [N // 2 + 1])
    ramp = _phase_ramp(theta / 2.0, 0, np.empty(N + 1, dtype=np.complex128))[N % 2 :: 2]
    cos, sin = 2.0 * ramp.real, 2.0 * ramp.imag
    cos[: 1 - N % 2] = 1.0  # at even N, mu = 0 is its own mirror
    d = np.empty((N + 1, N + 1))
    d[0::2, 0::2] = (even * cos) @ even.T
    d[1::2, 1::2] = (odd * cos) @ odd.T
    d[0::2, 1::2] = (even * sin) @ odd.T
    d[1::2, 0::2] = -d[0::2, 1::2].T
    return d


def rotated_operators(N: int, p: float, phi: float) -> PseudoSpinSet:
    """Primed operator set whose top-rung eigenvector is |N, p, phi>.

    The closed-form combinations

        J3'    = (2p-1) J3 + sqrt(p(1-p)) (e^(i phi) J+ + e^(-i phi) J-)
        Jplus' = e^(-i phi) (p e^(i phi) J+ - (1-p) e^(-i phi) J- - 2 sqrt(p(1-p)) J3)

    built from their bands, which coincide with conjugation of the unprimed set
    by the rotation operator at the matching Bloch angles. phi is reduced to
    [0, 2*pi) first, as GbsParams does; a non-finite phi is a ValueError.
    """
    _check_probability(p)
    return _rotated_set(N, p, 1.0 - p, cmath.exp(1j * normalize_angle(phi)))


def _rotated_set(N: int, p: float, q: float, ephi: complex) -> PseudoSpinSet:
    """rotated_operators with q = 1 - p and ephi = e^(i phi) given, so a caller holding
    theta passes q = sin^2(theta/2): near p = 1, 1 - p has lost those digits.
    J3' = D T D^(-1) and Jplus' = e^(-i phi) D M D^(-1), D = diag(e^(i n phi))."""
    N = _check_photon_number(N)
    (t_diag, t_off), (m_diag, m_sub, m_sup) = _ladder_bands(N, p, q)
    back = np.conj(ephi)
    jplusp = _tridiagonal(back * m_diag, m_sub, back * back * m_sup)
    return PseudoSpinSet(
        N, _tridiagonal(t_diag, ephi * t_off, back * t_off), jplusp, adjoint(jplusp)
    )


def _tridiagonal(diag: np.ndarray, sub: np.ndarray, sup: np.ndarray) -> OperatorMatrix:
    out = np.zeros((diag.size, diag.size), dtype=np.complex128)
    n = np.arange(diag.size)
    out[n, n], out[n[1:], n[:-1]], out[n[:-1], n[1:]] = diag, sub, sup
    return OperatorMatrix._adopt(out)


def _ladder_bands(N: int, p: float, q: float) -> tuple[tuple, tuple]:
    """Real bands at phi = 0: T = J3' as (diagonal, off-diagonal) and M = e^(i phi) Jplus'
    as (diagonal, sub-, super-diagonal), T = (2p-1) J3 + sqrt(pq) (J+ + J-) and
    M = p J+ - q J- - 2 sqrt(pq) J3 on the ladder <k+1|J+|k> = sqrt((N-k)(k+1))."""
    n, k = np.arange(N + 1), np.arange(N)
    j3, up, root = n - N / 2.0, np.sqrt((N - k) * (k + 1.0)), math.sqrt(p * q)
    return ((2.0 * p - 1.0) * j3, root * up), (-2.0 * root * j3, p * up, -q * up)


def _ladder_eigenvectors(N: int, p: float, q: float, m: int | None = None) -> np.ndarray:
    """Real eigenvectors of T (_ladder_bands) as columns, eigenvalue m - N/2 in column m:
    for m = 0..N d(theta) at theta = 2 atan2(sqrt(q), sqrt(p)), or for the given m alone one
    vector of an O(N) eigensolve, its sign arbitrary. N >= 1.
    """
    if m is None:
        return _wigner_d(N, 2.0 * math.atan2(math.sqrt(q), math.sqrt(p)))
    from scipy.linalg import eigh_tridiagonal  # deferred: the vector paths never need scipy

    return eigh_tridiagonal(*_ladder_bands(N, p, q)[0], select="i", select_range=(m, m))[1]


def link_operator(N: int, a: GbsParams, b: GbsParams) -> OperatorMatrix:
    """Unitary T = R(b) R(a)^(-1) carrying |N,p,phi> onto |N,p',phi'>."""
    if a.N != N or b.N != N:
        raise ValueError(f"parameter sets must share N={N}, got {a.N} and {b.N}")
    return _link(N, params_to_angles(a), params_to_angles(b))


def _spin_half(theta: float, varphi: float) -> np.ndarray:
    """The rotation on the two-rung ladder n = 0, 1, for any real theta:
    [[c, e^(i varphi) s], [-e^(-i varphi) s, c]] with c, s = cos, sin(theta/2)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e = cmath.exp(1j * varphi)
    return np.array([[c, e * s], [-e.conjugate() * s, c]])


def _lift_spin_half(N: int, u: np.ndarray) -> OperatorMatrix:
    """The spin-N/2 image of an SU(2) matrix u, written as
    diag(e^(i alpha/2), e^(-i alpha/2)) [[c, e^(i phi_c) s], [-e^(-i phi_c) s, c]]."""
    c, s = abs(u[0, 0]), abs(u[0, 1])
    half_alpha = cmath.phase(u[0, 0]) if c > 0.0 else 0.0
    return _lift(N, 2.0 * math.atan2(s, c), cmath.phase(u[0, 1]) - half_alpha, half_alpha)


def _link(N: int, a: BlochAngles, b: BlochAngles) -> OperatorMatrix:
    """R(b) R(a)^(-1) as one rotation: the spin-N/2 representation is a homomorphism,
    so the product is composed on the spin-1/2 matrices U = U(b) U(a)^+ and lifted once.
    One real core and O(N^2) work, against two rotations and an (N+1)^3 product.
    """
    u = _spin_half(b.theta, b.varphi) @ _spin_half(a.theta, a.varphi).conj().T
    return _lift_spin_half(N, u)


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
    # Theta may exceed pi: R(Theta, Phi) is lifted from its spin-1/2 matrix as it stands
    r_comp = _lift_spin_half(N, _spin_half(big_theta, big_phi))
    return float(np.linalg.norm(t.entries - phase * r_comp.entries))
