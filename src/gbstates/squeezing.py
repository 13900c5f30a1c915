"""Quadrature squeezing of generalized binomial states.

The dimensionless quadratures aX = a + a', aP = (a - a')/i obey
[aX, aP] = 2i, so the vacuum dispersion is 1 and the squeezing index
S_K = 1 - <Delta aK^2> is positive exactly when quadrature K fluctuates
below vacuum. For |N,p,phi> both indexes have closed forms,

    S_X = -2Np - A(N,p) cos(2 phi) + B(N,p)^2 cos^2(phi)
    S_P = -2Np + A(N,p) cos(2 phi) + B(N,p)^2 sin^2(phi)

with A and B binomial cross sums, both over the one row
t_n = sqrt(C(N,n) C(N-1,n)) p^n (1-p)^(N-1-n), n = 0..N-1:
B = 2 sqrt(N p (1-p)) sum t_n and A = 2 sqrt(N) p sum t_n sqrt(N-1-n), the
paper's sum over C(N,n) C(N-2,n) by C(N-2,n) = C(N-1,n) (N-1-n)/(N-1).
This module evaluates them and cross-checks against direct operator
expectation values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .gbs import (
    _EXP_FLOOR,
    _LOG_EPS_64,
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


class _CrossRow(NamedTuple):
    """The p-independent rows of the cross sums on an index window: half_logc
    is 0.5 log(C(N,n) C(N-1,n)), n the index, rest N-1-n, root_rest its root."""

    half_logc: np.ndarray
    n: np.ndarray
    rest: np.ndarray
    root_rest: np.ndarray


def _cross_row(N: int, lo: int = 0, hi: int | None = None) -> _CrossRow:
    """The _CrossRow of n = lo..hi - 1 (default the whole row n = 0..N-1), for
    N >= 1; a scan builds the whole row once for all p."""
    if hi is None:
        hi = N
    n = np.arange(lo, hi, dtype=float)
    rest = (N - 1) - n
    half_logc = 0.5 * (_log_binomial_row(N, lo, hi) + _log_binomial_row(N - 1, lo, hi))
    return _CrossRow(half_logc, n, rest, np.sqrt(rest))


def _cross_sums(N: int, p: float, row: _CrossRow | None) -> tuple[float, float]:
    """(sum_n t_n, sum_n t_n sqrt(N-1-n)) for N >= 1 and 0 < p < 1, with
    t_n = sqrt(C(N,n) C(N-1,n)) p^n (1-p)^(N-1-n), n = 0..N-1.

    By C(N-1,n) <= C(N,n) <= N C(N-1,n), t_n lies between the binomial row
    b_n = C(N-1,n) p^n (1-p)^(N-1-n) and sqrt(N) b_n. So sum t_n >= 1 and, as
    (N-1-n)/(N-n) >= 1/2 for n <= N-2, sum t_n sqrt(N-1-n) >= (1-p) sqrt(N/2)
    for N >= 2. Both sums run over the one _support window of b_n outside
    which b_n < 2^-64 (1-p) / (sqrt(2) N^1.5): each term left out of either
    sum is below 2^-64 of it over the N terms, so together they cannot reach
    its last bit. The floor never drops below the level where sqrt(N) b_n
    underflows in np.exp. The window is exp(half_logc + (n log p + (N-1-n)
    log(1-p))), summed in numpy's pairwise order, then scaled by sqrt(N-1-n)
    in place and summed again. A scan passes the whole _cross_row(N);
    without it, the rows are built on the window alone.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.log(N)
    floor = _LOG_EPS_64 + log_q - 0.5 * math.log(2.0) - 1.5 * log_n
    lo, hi = _support(N - 1, log_p, log_q, max(floor, _EXP_FLOOR - 0.5 * log_n))
    half_logc, n, rest, root_rest = (
        _cross_row(N, lo, hi) if row is None else (r[lo:hi] for r in row)
    )
    window = n * log_p
    window += rest * log_q
    window += half_logc  # IEEE addition commutes: the bytes of half_logc + window
    np.exp(window, out=window)
    b_sum = float(np.add.reduce(window))  # np.sum's reduction, without its wrapper
    window *= root_rest
    return b_sum, float(np.add.reduce(window))


def _squeezing_terms(N: int, p: float, row: _CrossRow | None) -> SqueezingTerms:
    """A(N,p) = 2 sqrt(N) p sum t_n sqrt(N-1-n) and B(N,p) = 2 sqrt(N p q) sum t_n,
    from _cross_sums on the whole _cross_row(N) when given."""
    _check_photon_number(N)
    _check_probability(p)
    if p in (0.0, 1.0) or N == 0:
        return SqueezingTerms(0.0, 0.0)
    b_sum, a_sum = _cross_sums(N, p, row)
    return SqueezingTerms(
        2.0 * math.sqrt(N) * p * a_sum, 2.0 * math.sqrt(N * p * (1.0 - p)) * b_sum
    )


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

    Costs O(sqrt(N p (1-p))) exps and adds: both binomial cross sums are
    evaluated on one window, which _support finds in a few Newton steps,
    outside which every term lies below 2^-64 of its sum over the count of
    terms (see _cross_sums): the terms left out cannot reach the last bit.
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
    row = _cross_row(N) if N else None
    a, b2 = [], []
    for p in p_grid:
        terms = _squeezing_terms(N, p, row)
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
