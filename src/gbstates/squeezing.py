"""Quadrature squeezing of generalized binomial states.

The dimensionless quadratures aX = a + a', aP = (a - a')/i obey
[aX, aP] = 2i, so the vacuum dispersion is 1 and the squeezing index
S_K = 1 - <Delta aK^2> is positive exactly when quadrature K fluctuates
below vacuum. For |N,p,phi> both indexes have closed forms,

    S_X = -2Np - A(N,p) cos(2 phi) + B(N,p)^2 cos^2(phi)
    S_P = -2Np + A(N,p) cos(2 phi) + B(N,p)^2 sin^2(phi)

with A and B the paper's binomial cross sums. By
sqrt(C(N,n) C(N-1,n)) = C(N-1,n) sqrt(N/(N-n)) and C(N-2,n) =
C(N-1,n) (N-1-n)/(N-1), both are moments over n ~ Bin(N-1, p):

    A = 2 N p E[sqrt((N-1-n)/(N-n))],    B = 2 sqrt(N p (1-p)) E[sqrt(N/(N-n))].

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
    _LOG_EPS_64,
    GbsParams,
    _check_angle,
    _check_photon_number,
    _check_probability,
    _log_row,
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


def _moment_weights(N: int, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The p-independent weights sqrt((N-1-n)/(N-n)) of A and sqrt(N/(N-n)) of B for
    n = lo..hi - 1 (default the whole row n = 0..N-1), N >= 1. Both are elementwise,
    so a slice of the whole row has the bytes of the row built on the slice alone.
    Each is computed in place, with no temporary beyond the two results."""
    m = np.arange(lo, N if hi is None else hi, dtype=float)
    np.subtract(N, m, out=m)  # N - n
    a = np.subtract(m, 1.0)
    np.sqrt(np.divide(a, m, out=a), out=a)
    return a, np.sqrt(np.divide(N, m, out=m), out=m)


def _moment_sums(N: int, p: float, weights=None) -> tuple[float, float, float]:
    """(sum b_n, sum b_n sqrt((N-1-n)/(N-n)), sum b_n sqrt(N/(N-n))) over one _support
    window of the row b_n of Bin(N-1, p), for N >= 1 and 0 < p < 1. A scan passes the
    whole _moment_weights(N) and each p slices its window from them; a single call
    builds them on the window alone. Outside the window
    b_n < 2^-64 (1-p) / (sqrt(2) N^1.5); as sum b_n = 1, 1 <= sqrt(N/(N-n)) <= sqrt(N)
    and sum b_n sqrt((N-1-n)/(N-n)) >= (1-p) / sqrt(2), each term left out of a sum
    is below 2^-64 of it over the N terms: together they cannot reach its last bit.
    Each sum is numpy's pairwise np.add.reduce, whose bytes depend neither on where
    the window starts in memory nor on a BLAS build or its threads."""
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.log(N)
    floor = _LOG_EPS_64 + log_q - 0.5 * math.log(2.0) - 1.5 * log_n
    lo, hi = _support(N - 1, log_p, log_q, floor)
    a_weight, b_weight = (
        _moment_weights(N, lo, hi) if weights is None else (w[lo:hi] for w in weights)
    )
    b = np.exp(_log_row(N - 1, log_p, log_q, lo, hi))
    terms = np.multiply(b, a_weight)
    a_sum = np.add.reduce(terms)
    b_sum = np.add.reduce(np.multiply(b, b_weight, out=terms))
    return np.add.reduce(b), a_sum, b_sum


def _squeezing_terms(N: int, p: float, weights=None) -> SqueezingTerms:
    """A(N,p) = 2 N p E[sqrt((N-1-n)/(N-n))] and B(N,p) = 2 sqrt(N p q) E[sqrt(N/(N-n))],
    each E the ratio of two _moment_sums, on the whole _moment_weights(N) when given.
    Dividing by the window's own sum cancels any rounding common to the row."""
    _check_photon_number(N)
    _check_probability(p)
    if p in (0.0, 1.0) or N == 0:
        return SqueezingTerms(0.0, 0.0)
    total, a_sum, b_sum = _moment_sums(N, p, weights)
    return SqueezingTerms(
        2.0 * N * p * float(a_sum / total),
        2.0 * math.sqrt(N * p * (1.0 - p)) * float(b_sum / total),
    )


def squeezing_terms(N: int, p: float) -> SqueezingTerms:
    """Closed-form A(N,p) and B(N,p)."""
    return _squeezing_terms(N, p)


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

    Costs O(sqrt(N p (1-p))) exps and adds: both moments of A and B are
    evaluated on one window of Bin(N-1, p), which _support finds in a few
    Newton steps, outside which every term lies below 2^-64 of its sum over
    the count of terms (see _moment_sums): the terms left out cannot reach the
    last bit.
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
    weights = _moment_weights(N) if N else None  # built once, sliced per p
    a, b2 = [], []
    for p in p_grid:
        terms = _squeezing_terms(N, p, weights)
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
