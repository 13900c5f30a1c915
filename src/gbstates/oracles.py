"""Brute-force references for verify and the tests.

Each oracle reaches a result of the production modules by the slow, direct
route: the dense matrix exponential of a rotation generator, the collective
operators of N atoms on the full 2^N product space, the disentangled product
of Arecchi et al. (1972) in extended precision, the dense truncated
quadrature matrices, the phases e^(i n phi) from an error-free product, and
log C(n, k) one entry at a time.
No production module imports this one, so its cost (O(N^3) exponentials,
2^N-dimensional matrices, mpmath) never reaches a production path; scipy
and mpmath are imported on first use only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cas import _check_half_integer
from .gbs import BlochAngles
from .hilbert import OperatorMatrix, StateVector

MAX_TENSOR_ATOMS = 12


def log_binomial(n: int, k: int) -> float:
    """log C(n, k) as a difference of log-gamma values, one entry at a time: the
    reference that gbs._log_binomial_row reproduces bit for bit."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial index k={k} outside [0, {n}]")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _split(x):
    """Veltkamp's split x = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def exact_phase_ramp(phi: float, n) -> np.ndarray:
    """e^(i n phi) for integers n, by another route than gbs._phase_ramp: Dekker's
    TwoProduct gives n phi = hi + lo exactly, with |lo| <= ulp(hi) / 2, and
    e^(i (hi + lo)) is taken as e^(i hi) (1 + i lo). The dropped lo^2 / 2 is below
    3e-17 while |n phi| < 2^26 (7e-21 below 2^20, which covers n <= 1.6e5 at any
    phi in [0, 2 pi)), so each entry is within a few eps of the exact phase there,
    where e^(i n phi) from the rounded product n * phi is off by up to
    |n phi| eps / 2."""
    n = np.asarray(n, dtype=float)
    hi = n * phi
    n_hi, n_lo = _split(n)
    phi_hi, phi_lo = _split(phi)
    lo = ((n_hi * phi_hi - hi) + n_hi * phi_lo + n_lo * phi_hi) + n_lo * phi_lo
    return np.exp(1j * hi) * (1.0 + 1j * lo)


def expm(a: OperatorMatrix) -> OperatorMatrix:
    """Matrix exponential (Pade approximant with scaling and squaring).

    O(N^3) in time. Accurate well below 1e-12 relative Frobenius error for
    the moderate-norm anti-Hermitian generators used throughout this package.
    """
    if not np.all(np.isfinite(a.entries)):
        raise ValueError("matrix exponential of a non-finite matrix")
    import scipy.linalg  # deferred: only this oracle needs it, and it slows import

    return OperatorMatrix(scipy.linalg.expm(a.entries))


def rotation_expm(ops, eta: complex) -> OperatorMatrix:
    """exp(-eta Jplus + eta* Jminus) for any complex eta, by a dense matrix exponential,
    on the space of any operator set with Jplus and Jminus: the (N+1)-dim ladder of
    hp_operators(N), the oracle for rotation_operator, or the 2^N product space."""
    return expm((-eta) * ops.Jplus + np.conj(eta) * ops.Jminus)


@dataclass(frozen=True)
class TensorAtomSpace:
    """Collective operators on the full 2^N product space of N atoms."""

    N_atoms: int
    Jz: OperatorMatrix
    Jplus: OperatorMatrix
    Jminus: OperatorMatrix
    Jsq: OperatorMatrix


def _kron_chain(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@lru_cache(maxsize=None)
def tensor_atom_space(N_atoms: int) -> TensorAtomSpace:
    """Collective operators built atom by atom from Pauli matrices.

    Basis index bits encode the atoms (bit set = excited), so the
    all-ground product state sits at index 0. Capped at 12 atoms.
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
    """The Bloch rotation of gbstates.cas.rotation_operator_spin, factored as
    e^(tau* J-) e^(-ln(1+|tau|^2) Jz) e^(-tau J+).

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


def quadrature_ops(dim: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Truncated aX, aP matrices; [aX, aP] = 2i except on the top level.

    The dense form of gbstates.squeezing.direct_stats.
    """
    if dim < 2:
        raise ValueError(f"quadratures need dim >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    k = np.arange(dim - 1)
    a[k, k + 1] = np.sqrt(k + 1.0)
    return OperatorMatrix(a + a.conj().T), OperatorMatrix((a - a.conj().T) / 1j)
