"""Quadrature squeezing of generalized binomial states.

The dimensionless quadratures aX = a + a', aP = (a - a')/i obey
[aX, aP] = 2i, so the vacuum dispersion is 1 and the squeezing index
S_K = 1 - <Delta aK^2> is positive exactly when quadrature K fluctuates
below vacuum. For |N,p,phi> both indexes have closed forms,

    S_X = -2Np - A(N,p) cos(2 phi) + B(N,p)^2 cos^2(phi)
    S_P = -2Np + A(N,p) cos(2 phi) + B(N,p)^2 sin^2(phi)

with A and B binomial cross sums; this module evaluates them and
cross-checks against direct operator expectation values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gbs import (
    _EXP_FLOOR,
    GbsParams,
    _check_angle,
    _check_photon_number,
    _check_probability,
    _log_binomial_row,
    _support,
    gbs_state,
)
from .hilbert import OperatorMatrix, StateVector


@dataclass(frozen=True)
class QuadratureStats:
    """First and second quadrature moments plus squeezing indexes."""

    mean_X: float
    mean_P: float
    var_X: float
    var_P: float
    S_X: float
    S_P: float


@dataclass(frozen=True)
class SqueezingTerms:
    """The two closed-form cross sums A(N,p), B(N,p); both vanish at p = 0, 1."""

    A_term: float
    B_term: float


@dataclass(frozen=True)
class SqueezeRow:
    """One grid point of a squeezing scan."""

    N: int
    p: float
    phi: float
    S_X: float
    S_P: float
    source: str
    stats: QuadratureStats | None = None


def quadrature_ops(dim: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Truncated aX, aP matrices; [aX, aP] = 2i except on the top level.

    The dense oracle of direct_stats, kept for the tests.
    """
    if dim < 2:
        raise ValueError(f"quadratures need dim >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    k = np.arange(dim - 1)
    a[k, k + 1] = np.sqrt(k + 1.0)
    return OperatorMatrix(a + a.conj().T), OperatorMatrix((a - a.conj().T) / 1j)


def direct_stats(psi: StateVector) -> QuadratureStats:
    """Quadrature moments of a state by explicit expectation values.

    a and a' act as shifted products of the amplitude vector, the truncated
    operators of quadrature_ops without the matrices: O(N) time and memory.
    Var(K) is taken as ||(K - <K>) psi||^2, so no O(N) terms cancel. The
    state must be normalized and must not populate the top two truncation
    levels, otherwise the <aK^2> values pick up truncation artifacts.
    """
    if not psi.is_normalized():
        raise ValueError("direct_stats requires a normalized state")
    if psi.dim < 3:
        raise ValueError("need dim >= 3 so two empty guard levels exist")
    if np.max(np.abs(psi.amp[-2:])) > 1e-10:
        raise ValueError("top two truncation levels must be unpopulated")
    amp = psi.amp
    ladder = np.sqrt(np.arange(1.0, psi.dim))
    down, up = np.zeros_like(amp), np.zeros_like(amp)  # a psi, a' psi
    down[:-1] = ladder * amp[1:]
    up[1:] = ladder * amp[:-1]
    stats = []
    for vec in (down + up, (down - up) / 1j):
        mean = float(np.real(np.vdot(amp, vec)))
        spread = vec - mean * amp
        stats.append((mean, float(np.real(np.vdot(spread, spread)))))
    (mean_x, var_x), (mean_p, var_p) = stats
    return QuadratureStats(mean_x, mean_p, var_x, var_p, 1.0 - var_x, 1.0 - var_p)


def _cross_log_rows(N: int) -> list[np.ndarray]:
    """0.5 * log(C(N,n) C(M,n)) for n = 0..M, for M = N-1 and M = N-2 where M >= 0.

    The rows do not depend on p, so a scan builds them once for all p.
    """
    if N < 1:
        return []
    logc = _log_binomial_row(N)
    return [0.5 * (logc[: M + 1] + _log_binomial_row(M)) for M in (N - 1, N - 2) if M >= 0]


def _cross_binomial_sum(N: int, M: int, p: float, half_logc: np.ndarray | None) -> float:
    """sum_n sqrt(C(N,n) C(M,n)) p^n (1-p)^(M-n) over n = 0..M, for 0 < p < 1.

    Since C(N,n) <= N^(N-M) C(M,n), each term is at most N^((N-M)/2) times
    the binomial row C(M,n) p^n (1-p)^(M-n), so only that row's _support
    interval is evaluated: from half_logc, the _cross_log_rows row of M,
    when given, else built on the interval alone. The sum runs over the
    whole zero-padded row, in the pairwise order of the full evaluation.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    lo, hi = _support(M, log_p, log_q, _EXP_FLOOR - 0.5 * (N - M) * math.log(N))
    if half_logc is None:
        half_logc = 0.5 * (_log_binomial_row(N, lo, hi) + _log_binomial_row(M, lo, hi))
    else:
        half_logc = half_logc[lo:hi]
    n = np.arange(lo, hi, dtype=float)
    terms = np.zeros(M + 1)
    np.exp(half_logc + (n * log_p + (M - n) * log_q), out=terms[lo:hi])
    return float(np.sum(terms))


def _squeezing_terms(N: int, p: float, cross_rows: list[np.ndarray] | None) -> SqueezingTerms:
    """A(N,p) and B(N,p), from the _cross_log_rows(N) rows when given."""
    _check_photon_number(N)
    _check_probability(p)
    if p in (0.0, 1.0) or N == 0:
        return SqueezingTerms(0.0, 0.0)
    rows = cross_rows or (None, None)
    b = 2.0 * math.sqrt(N * p * (1.0 - p)) * _cross_binomial_sum(N, N - 1, p, rows[0])
    if N < 2:
        return SqueezingTerms(0.0, b)
    a = 2.0 * math.sqrt(N * (N - 1.0)) * p * (1.0 - p) * _cross_binomial_sum(N, N - 2, p, rows[1])
    return SqueezingTerms(a, b)


def squeezing_terms(N: int, p: float) -> SqueezingTerms:
    """Closed-form A(N,p) and B(N,p)."""
    return _squeezing_terms(N, p, None)


def _angle_factors(phi):
    """(cos 2phi, cos^2 phi, sin^2 phi) of a finite angle, by math."""
    _check_angle(phi)
    return math.cos(2.0 * phi), math.cos(phi) ** 2, math.sin(phi) ** 2


def _indexes_from_terms(N: int, p: float, terms: SqueezingTerms, cos2, cos_sq, sin_sq):
    """(S_X, S_P) from A, B and the _angle_factors: the paper's closed form,
    written once, for one angle (floats) or a grid of angles (arrays)."""
    a, b2 = terms.A_term, terms.B_term ** 2
    s_x = -2.0 * N * p - a * cos2 + b2 * cos_sq
    s_p = -2.0 * N * p + a * cos2 + b2 * sin_sq
    return s_x, s_p


def closed_form_indexes(N: int, p: float, phi: float) -> tuple[float, float]:
    """Closed-form squeezing indexes (S_X, S_P) of |N, p, phi>.

    Costs an O(N) zero fill plus O(sqrt(N p (1-p))) work: the binomial
    cross sums are evaluated only where their terms do not underflow.
    """
    terms = squeezing_terms(N, p)
    return _indexes_from_terms(N, p, terms, *_angle_factors(phi))


def squeeze_scan(
    N: int,
    p_grid,
    phi_grid,
    source: str = "closed_form",
) -> list[SqueezeRow]:
    """Evaluate the squeezing indexes over a (p, phi) grid.

    Rows come back in row-major order with p the outer loop, so repeated
    scans diff cleanly. source selects the closed forms or the direct
    operator expectations (computed on an N+3 space so the quadratic
    moments never touch the truncation edge).
    """
    if source not in ("closed_form", "direct"):
        raise ValueError(f"unknown source {source!r}")
    p_grid = [float(p) for p in p_grid]
    phi_grid = [float(f) for f in phi_grid]
    if not p_grid or not phi_grid:
        raise ValueError("scan grids must be non-empty")
    rows = []
    if source == "direct":
        for p in p_grid:
            for phi in phi_grid:
                stats = direct_stats(gbs_state(GbsParams(N, p, phi), dim=N + 3))
                rows.append(SqueezeRow(N, p, phi, stats.S_X, stats.S_P, source, stats))
        return rows
    _check_photon_number(N)
    cos2, cos_sq, sin_sq = np.array([_angle_factors(phi) for phi in phi_grid]).T
    cross_rows = _cross_log_rows(N)
    for p in p_grid:
        terms = _squeezing_terms(N, p, cross_rows)
        s_x, s_p = _indexes_from_terms(N, p, terms, cos2, cos_sq, sin_sq)
        rows.extend(
            SqueezeRow(N, p, phi, x, y, source)
            for phi, x, y in zip(phi_grid, s_x.tolist(), s_p.tolist())
        )
    return rows
