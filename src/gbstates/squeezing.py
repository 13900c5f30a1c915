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
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .gbs import (
    GbsParams,
    _check_angle,
    _check_photon_number,
    _check_probability,
    _log_binomial_row,
    _support,
    gbs_state,
)
from .hilbert import StateVector


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


class SqueezeRow(NamedTuple):
    """One grid point of a squeezing scan.

    An immutable tuple: row._asdict() gives its fields as a dict and
    row._replace(...) a copy with some fields changed.
    """

    N: int
    p: float
    phi: float
    S_X: float
    S_P: float
    source: str
    stats: QuadratureStats | None = None


def direct_stats(psi: StateVector) -> QuadratureStats:
    """Quadrature moments of a state by explicit expectation values.

    a and a' act as shifted products of the amplitude vector, the truncated
    operators of gbstates.oracles.quadrature_ops without the matrices: O(N)
    time and memory.
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


class _CrossRow(NamedTuple):
    """Reusable rows of the cross sums of one M over a scan's p grid:
    half_logc is the _cross_log_rows row of M, n and rest are n = 0..M and M - n."""

    half_logc: np.ndarray
    n: np.ndarray
    rest: np.ndarray


def _cross_rows(N: int) -> list[_CrossRow]:
    """A _CrossRow per _cross_log_rows(N) row, built once per scan; the rows of
    M = N-1 and N-2 take their n as prefixes of one arange of N entries."""
    n = np.arange(N, dtype=float)
    rows = []
    for half_logc in _cross_log_rows(N):
        size = half_logc.size
        rows.append(_CrossRow(half_logc, n[:size], (size - 1) - n[:size]))
    return rows


# log(2^-1022), the smallest normal double: np.exp leaves numpy's vector path
# for a subnormal result, at about 130 ns a lane against about 1.5 ns
_NORMAL_FLOOR = math.log(np.finfo(float).tiny)


def _cross_binomial_sum(N: int, M: int, p: float, row: _CrossRow | None) -> float:
    """sum_n sqrt(C(N,n) C(M,n)) p^n (1-p)^(M-n) over n = 0..M, for 0 < p < 1.

    Since C(N,n) <= N^(N-M) C(M,n), each term is at most N^((N-M)/2) times
    the binomial row C(M,n) p^n (1-p)^(M-n), so only the _support interval
    [lo, hi) of that row outside which every term lies below 2^-1022 is
    evaluated, as exp(half_logc + (n log p + (M-n) log(1-p))), and summed in
    numpy's pairwise order over that window. The terms left out add up to
    under (M + 1) 2^-1022, far below the last digit of a sum that holds its
    largest term. A scan passes the _CrossRow of M, whose rows serve every
    p; without one, the rows are built on the interval alone.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    lo, hi = _support(M, log_p, log_q, _NORMAL_FLOOR - 0.5 * (N - M) * math.log(N))
    if row is None:
        half_logc = 0.5 * (_log_binomial_row(N, lo, hi) + _log_binomial_row(M, lo, hi))
        n = np.arange(lo, hi, dtype=float)
        rest = M - n
    else:
        half_logc, n, rest = row.half_logc[lo:hi], row.n[lo:hi], row.rest[lo:hi]
    window = n * log_p
    window += rest * log_q
    window += half_logc  # IEEE addition commutes: the bytes of half_logc + window
    np.exp(window, out=window)
    return float(np.add.reduce(window))  # np.sum's reduction, without its wrapper


def _squeezing_terms(N: int, p: float, cross_rows: list[_CrossRow] | None) -> SqueezingTerms:
    """A(N,p) and B(N,p), on the _cross_rows(N) buffers when given."""
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


def _indexes_from_terms(N: int, p, a, b2, cos2, cos_sq, sin_sq):
    """(S_X, S_P) from p, A, B^2 and the _angle_factors: the paper's closed
    form, written once, for one point (floats) or a grid, (P, 1) columns of
    p, A and B^2 against (F,) rows of angle factors."""
    s_x = -2.0 * N * p - a * cos2 + b2 * cos_sq
    s_p = -2.0 * N * p + a * cos2 + b2 * sin_sq
    return s_x, s_p


def closed_form_indexes(N: int, p: float, phi: float) -> tuple[float, float]:
    """Closed-form squeezing indexes (S_X, S_P) of |N, p, phi>.

    Costs O(sqrt(N p (1-p))) exps and adds: the binomial cross sums are
    evaluated and summed only where their terms are normal doubles, on
    intervals that _support finds in a few Newton steps.
    """
    terms = squeezing_terms(N, p)
    return _indexes_from_terms(N, p, terms.A_term, terms.B_term ** 2, *_angle_factors(phi))


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
    if source == "direct":
        rows = []
        for p in p_grid:
            for phi in phi_grid:
                stats = direct_stats(gbs_state(GbsParams(N, p, phi), dim=N + 3))
                rows.append(SqueezeRow(N, p, phi, stats.S_X, stats.S_P, source, stats))
        return rows
    _check_photon_number(N)
    cos2, cos_sq, sin_sq = np.array([_angle_factors(phi) for phi in phi_grid]).T
    cross_rows = _cross_rows(N)
    a, b2 = [], []
    for p in p_grid:
        terms = _squeezing_terms(N, p, cross_rows)
        a.append(terms.A_term)
        b2.append(terms.B_term ** 2)
    p_col, a, b2 = (np.array(v)[:, None] for v in (p_grid, a, b2))
    s_x, s_p = _indexes_from_terms(N, p_col, a, b2, cos2, cos_sq, sin_sq)
    width = len(phi_grid)
    columns = (
        repeat(N),
        chain.from_iterable(repeat(p, width) for p in p_grid),
        phi_grid * len(p_grid),
        s_x.ravel().tolist(),
        s_p.ravel().tolist(),
        repeat(source),
        repeat(None),
    )
    # tuple.__new__ fills each row in C, without SqueezeRow.__new__'s Python frame
    return list(map(tuple.__new__, repeat(SqueezeRow), zip(*columns)))
