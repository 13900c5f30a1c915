"""Over-complete basis machinery: resolution of identity and expansions.

The family {|N,p,phi>} over the Bloch sphere satisfies

    (N+1) * integral dOmega/(4 pi) |N,p,phi><N,p,phi| = 1

on the span of |0>..|N>. With u = cos(theta) the integrand is a degree-N
polynomial in u once the azimuthal average is taken, so Gauss-Legendre in
u (>= ceil((N+1)/2) nodes) plus a uniform phase grid (>= N+1 nodes) makes
the quadrature exact to roundoff. Interior Gauss nodes never touch the
degenerate p = 0, 1 endpoints.

The grid sum is never formed node by node. The state at (theta_k, phi_j)
has amplitudes m_k[n] e^(i n phi_j), so the weighted sum of its projectors
has entries

    R[n, n'] = G[n, n'] * S(n - n'),

a real Gram matrix G of the K polar rows m_k times the azimuthal average
S(d) = (1/M) sum_j e^(i d phi_j). That is the same finite sum taken in
another order: O(K N^2 + M N) time and O(K N + N^2) memory for K polar
and M phase nodes, against O(K M N) for the full amplitude grid.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gbs import (
    GbsParams,
    _check_photon_number,
    _log_binomial_row,
    binomial_amplitudes,
    gbs_state,
)
from .hilbert import OperatorMatrix, StateVector, inner


@dataclass(frozen=True)
class SphereQuadrature:
    """Product quadrature over the Bloch sphere.

    theta_nodes holds rows (theta_k, w_k) where the w_k are Gauss-Legendre
    weights in u = cos(theta) on [-1, 1] (so they sum to 2); the azimuthal
    average uses phi_count uniform nodes phi_j = 2 pi j / phi_count.
    """

    theta_nodes: np.ndarray
    phi_count: int

    def __post_init__(self):
        arr = np.array(self.theta_nodes, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"theta_nodes must have shape (K, 2), got {arr.shape}")
        if abs(arr[:, 1].sum() - 2.0) > 1e-9:
            raise ValueError("Gauss-Legendre weights in u must sum to 2")
        if self.phi_count < 1:
            raise ValueError("need at least one azimuthal node")
        arr.setflags(write=False)
        object.__setattr__(self, "theta_nodes", arr)

    @classmethod
    def build(cls, n_theta: int, n_phi: int) -> "SphereQuadrature":
        if n_theta < 1:
            raise ValueError("need at least one polar node")
        u, w = np.polynomial.legendre.leggauss(n_theta)
        return cls(np.column_stack([np.arccos(u), w]), n_phi)

    @classmethod
    def default_for(cls, N: int) -> "SphereQuadrature":
        """Exactness-grade grid with a small margin over the threshold."""
        return cls.build(math.ceil((N + 1) / 2) + 2, N + 3)

    @property
    def p_values(self) -> np.ndarray:
        return np.cos(self.theta_nodes[:, 0] / 2.0) ** 2

    @property
    def phi_values(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.phi_count) / self.phi_count


@dataclass(frozen=True)
class ExpansionAmplitude:
    """Value of the amplitude function A at one tau."""

    tau: complex
    A_value: complex


def _resolution_matrix(N: int, quad: SphereQuadrature) -> np.ndarray:
    """Grid value of (N+1) integral dOmega/(4 pi) |N,p,phi><N,p,phi| as G * S.

    G[n, n'] = sum_k ((N+1) w_k / 2) m_k[n] m_k[n'] over the polar rows
    m_k = binomial_amplitudes(N, cos^2(theta_k/2)), all K from one log C(N, n)
    row (_polar_rows); S(d) is the average of e^(i d phi_j) over the phase
    nodes, summed numerically so that an under-resolved phase grid aliases
    exactly as the node-by-node sum does.
    The CAS coefficients are the complex conjugates of these amplitudes, so
    the CAS resolution is the conjugate of this matrix.
    """
    _check_photon_number(N)
    thetas, w = quad.theta_nodes[:, 0], quad.theta_nodes[:, 1]
    rows = _polar_rows(N, [math.cos(t / 2.0) ** 2 for t in thetas])
    gram = (rows.T * ((N + 1) * w / 2.0)) @ rows
    d = np.arange(-N, N + 1)
    phase_avg = np.exp(1j * np.outer(d, quad.phi_values)).mean(axis=1)
    n = np.arange(N + 1)
    return gram * phase_avg[n[:, None] - n + N]


def _polar_rows(N: int, p_values: list[float]) -> np.ndarray:
    """binomial_amplitudes(N, p) for each p as the rows of one array, bit-equal to
    the per-node calls: one log C(N, n) row serves every node, and log p and
    log1p(-p) are taken per node by math, as binomial_amplitudes takes them.
    The exact p = 0, 1 rows come from binomial_amplitudes itself."""
    p = np.array(p_values, dtype=float)
    inner = (p > 0.0) & (p < 1.0)
    n = np.arange(N + 1, dtype=float)
    log_p = np.array([math.log(x) for x in p[inner]])[:, None]
    log_q = np.array([math.log1p(-x) for x in p[inner]])[:, None]
    rows = np.empty((p.size, N + 1))
    rows[inner] = np.exp(0.5 * (_log_binomial_row(N) + n * log_p + (N - n) * log_q))
    for k in np.flatnonzero(~inner):
        rows[k] = binomial_amplitudes(N, p[k])
    return rows


def _warn_if_under_resolved(N: int, quad: SphereQuadrature) -> None:
    k_needed = math.ceil((N + 1) / 2)
    if quad.theta_nodes.shape[0] < k_needed or quad.phi_count < N + 1:
        warnings.warn(
            f"grid under-resolved for N={N}: need >= {k_needed} theta nodes "
            f"and >= {N + 1} phi nodes for exactness",
            stacklevel=3,
        )


def identity_resolution(N: int, quad: SphereQuadrature) -> OperatorMatrix:
    """Quadrature evaluation of (N+1) integral dOmega/(4 pi) |N,p,phi><N,p,phi|.

    Equals the identity to ~1e-12 entrywise on exactness-grade grids; an
    under-resolved grid is a legitimate experiment and only raises a
    UserWarning while returning the contaminated result.
    """
    _warn_if_under_resolved(N, quad)
    return OperatorMatrix(_resolution_matrix(N, quad))


def _tau_growth(psi: StateVector, params: GbsParams) -> float:
    """(1 + |tau|^2)^(N/2) = p^(-N/2), once psi, p = 0 and the double range are checked."""
    N, p = params.N, params.p
    if psi.dim < N + 1:
        raise ValueError(f"state dimension {psi.dim} below N+1 = {N + 1}")
    if not 0.0 < p <= 1.0:
        raise ValueError("the tau parameterization needs 0 < p <= 1")
    try:
        return p ** (-N / 2.0)
    except OverflowError:
        raise ValueError(f"p^(-N/2) overflows a double at N={N}, p={p}") from None


def expansion_amplitude(psi: StateVector, params: GbsParams) -> ExpansionAmplitude:
    """Amplitude function of a state in the over-complete basis.

    Computed from the closed identity A = (1+|tau|^2)^(N/2) <N,p,phi|psi>
    with tau = e^(i phi) sqrt((1-p)/p); requires 0 < p <= 1 (the p = 0
    pole of tau is never needed: quadrature paths use the bounded overlap
    form throughout).
    """
    prefactor = _tau_growth(psi, params)
    tau = cmath.exp(1j * params.phi) * math.sqrt((1.0 - params.p) / params.p)
    a_value = prefactor * inner(gbs_state(params, psi.dim), psi)
    return ExpansionAmplitude(tau, a_value)


def expansion_amplitude_series(psi: StateVector, params: GbsParams) -> complex:
    """Term-by-term series for A: sum_n c_n sqrt(C(N,n)) e^(-i n phi) |tau|^(N-n).

    Independent of the overlap route; the two agree to ~1e-10 relative.
    """
    N = params.N
    _tau_growth(psi, params)  # each coefficient is at most this bound
    c = psi.amp[: N + 1]
    if params.p == 1.0:
        # |tau| = 0: only the n = N monomial survives
        return complex(c[N] * cmath.exp(-1j * N * params.phi))
    n = np.arange(N + 1, dtype=float)
    log_abs_tau = 0.5 * (math.log1p(-params.p) - math.log(params.p))
    coeff = np.exp(0.5 * _log_binomial_row(N) + (N - n) * log_abs_tau)
    return complex(np.sum(c * coeff * np.exp(-1j * n * params.phi)))


def reconstruct(psi: StateVector, N: int, quad: SphereQuadrature) -> StateVector:
    """Re-expand a state through the over-complete basis.

    Evaluates (N+1) integral dOmega/(4 pi) <N,p,phi|psi> |N,p,phi> on the
    grid, as the grid's resolution matrix applied to psi; the integrand is
    the bounded overlap form of A/(1+|tau|^2)^(N/2), so nothing diverges
    near the p -> 0 edge. With exactness-grade grids this is the identity
    map on states supported on n <= N.
    """
    if psi.dim < N + 1:
        raise ValueError(f"state dimension {psi.dim} too small for N={N}: need N+1 = {N + 1}")
    if psi.dim > N + 1 and np.max(np.abs(psi.amp[N + 1 :])) > 1e-12:
        raise ValueError(f"state has support above n = {N}")
    _warn_if_under_resolved(N, quad)
    out = np.zeros(psi.dim, dtype=np.complex128)
    out[: N + 1] = _resolution_matrix(N, quad) @ psi.amp[: N + 1]
    return StateVector(out)
