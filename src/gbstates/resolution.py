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
S(d) = (1/M) sum_j e^(i d phi_j) over the M uniform phase nodes. That
geometric series is exactly [M | d]: 1 when M divides d, else 0. So R is
real and keeps only the diagonals d = 0, +-M, +-2M, ... of G, each an
O(K N) contraction of the polar rows: O(K N (1 + 2 floor(N/M))) time and
O(K N) memory beyond the result, against O(K M N) for the full amplitude
grid. On exactness-grade grids (M >= N+1) R is diagonal; an under-resolved
phase grid keeps its aliasing diagonals, as the node-by-node sum does.
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


def _default_node_counts(N: int) -> tuple[int, int]:
    """Polar and azimuthal node counts of the default grid: exactness grade
    (ceil((N+1)/2) and N+1) with a margin of two nodes each."""
    return math.ceil((N + 1) / 2) + 2, N + 3


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
        return cls.build(*_default_node_counts(N))

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


def _resolution_bands(N: int, quad: SphereQuadrature) -> list[tuple[int, np.ndarray]]:
    """The diagonals of _resolution_matrix that S keeps: (d, R[n, n + d] for n = 0..N-d)
    for d = 0, M, 2M, ... <= N, M = quad.phi_count; R is symmetric.

    R[n, n + d] = sum_k ((N+1) w_k / 2) m_k[n] m_k[n + d] over the polar rows
    m_k = binomial_amplitudes(N, cos^2(theta_k/2)), all K from one log C(N, n)
    row (_polar_rows).
    """
    _check_photon_number(N)
    thetas, w = quad.theta_nodes[:, 0], quad.theta_nodes[:, 1]
    rows = _polar_rows(N, [math.cos(t / 2.0) ** 2 for t in thetas])
    weighted = rows * ((N + 1) * w / 2.0)[:, None]
    return [
        (d, np.einsum("kn,kn->n", weighted[:, : N + 1 - d], rows[:, d:]))
        for d in range(0, N + 1, quad.phi_count)
    ]


def _resolution_matrix(N: int, quad: SphereQuadrature) -> np.ndarray:
    """Grid value of (N+1) integral dOmega/(4 pi) |N,p,phi><N,p,phi| as G * S, built
    from its diagonals (_resolution_bands): real, and diagonal when M >= N+1.
    The CAS coefficients are the complex conjugates of these amplitudes, so the
    CAS resolution, the conjugate of this real matrix, is this matrix.
    """
    bands = _resolution_bands(N, quad)
    out = np.zeros((N + 1, N + 1))
    for d, band in bands:
        n = np.arange(band.size)
        out[n, n + d] = out[n + d, n] = band
    return out


def _apply_resolution(N: int, quad: SphereQuadrature, amp: np.ndarray) -> np.ndarray:
    """_resolution_matrix(N, quad) @ amp[: N + 1] from the diagonals, without the matrix."""
    bands, amp = _resolution_bands(N, quad), amp[: N + 1]
    out = np.zeros(N + 1, dtype=np.complex128)
    for d, band in bands:
        out[: N + 1 - d] += band * amp[d:]
        if d:
            out[d:] += band * amp[: N + 1 - d]
    return out


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

    Real. On exactness-grade grids it is diagonal, every off-diagonal entry an
    exact 0, and equals the identity to ~1e-12; an under-resolved grid is a
    legitimate experiment and only raises a UserWarning while returning the
    contaminated result, whose nonzero off-diagonals sit at offsets that are
    multiples of the phase node count.
    """
    _warn_if_under_resolved(N, quad)
    return OperatorMatrix(_resolution_matrix(N, quad))


def _check_tau_domain(psi: StateVector, params: GbsParams) -> None:
    if psi.dim < params.N + 1:
        raise ValueError(f"state dimension {psi.dim} below N+1 = {params.N + 1}")
    if not 0.0 < params.p <= 1.0:
        raise ValueError("the tau parameterization needs 0 < p <= 1")


def _tau_growth(psi: StateVector, params: GbsParams) -> float:
    """(1 + |tau|^2)^(N/2) = p^(-N/2), once psi, p = 0 and the double range are checked."""
    _check_tau_domain(psi, params)
    N, p = params.N, params.p
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
    _tau_growth(psi, params)  # each coefficient is at most this bound
    return _series(psi, params, 0.0)


def _series(psi: StateVector, params: GbsParams, log_scale: float) -> complex:
    """expansion_amplitude_series times e^(log_scale), the factor folded into each
    term's exponent; log_scale is 0 or (N/2) log p, and both vanish at p = 1."""
    N = params.N
    c = psi.amp[: N + 1]
    if params.p == 1.0:
        # |tau| = 0: only the n = N monomial survives
        return complex(c[N] * cmath.exp(-1j * N * params.phi))
    n = np.arange(N + 1, dtype=float)
    log_abs_tau = 0.5 * (math.log1p(-params.p) - math.log(params.p))
    coeff = np.exp(0.5 * _log_binomial_row(N) + (N - n) * log_abs_tau + log_scale)
    return complex(np.sum(c * coeff * np.exp(-1j * n * params.phi)))


def _scaled_amplitude_routes(psi: StateVector, params: GbsParams) -> tuple[complex, complex]:
    """A / (1+|tau|^2)^(N/2) = A p^(N/2) by the overlap route and by the series with
    p^(N/2) folded into its exponents. Neither step overflows at any N, so the two
    routes compare relatively where A itself does not fit in a double."""
    _check_tau_domain(psi, params)
    overlap = inner(gbs_state(params, psi.dim), psi)
    return overlap, _series(psi, params, 0.5 * params.N * math.log(params.p))


def reconstruct(psi: StateVector, N: int, quad: SphereQuadrature) -> StateVector:
    """Re-expand a state through the over-complete basis.

    Evaluates (N+1) integral dOmega/(4 pi) <N,p,phi|psi> |N,p,phi> on the
    grid, as the grid's resolution matrix applied to psi one kept diagonal at a
    time (a single diagonal on exactness-grade grids), never forming the
    (N+1)^2 matrix; the integrand is the bounded overlap form of
    A/(1+|tau|^2)^(N/2), so nothing diverges near the p -> 0 edge. With
    exactness-grade grids this is the identity map on states supported on n <= N.
    """
    if psi.dim < N + 1:
        raise ValueError(f"state dimension {psi.dim} too small for N={N}: need N+1 = {N + 1}")
    if psi.dim > N + 1 and np.max(np.abs(psi.amp[N + 1 :])) > 1e-12:
        raise ValueError(f"state has support above n = {N}")
    _warn_if_under_resolved(N, quad)
    out = np.zeros(psi.dim, dtype=np.complex128)
    out[: N + 1] = _apply_resolution(N, quad, psi.amp)
    return StateVector(out)
