"""The vectorised log-binomial rows against the scalar loops they replaced.

Each reference below is the per-k list comprehension the library used
before its rows were vectorised. The row performs the same IEEE
operations in the same order, so every comparison is exact: bytes, not
a tolerance.
"""

import math

import numpy as np
import pytest

from gbstates.gbs import (
    GbsParams,
    _lgamma_table,
    _log_binomial_row,
    binomial_amplitudes,
    coherent_state_truncated,
    gbs_overlap,
    gbs_state,
    log_binomial,
)
from gbstates.hilbert import StateVector
from gbstates.resolution import expansion_amplitude_series
from gbstates.squeezing import SqueezingTerms, closed_form_indexes, squeeze_scan, squeezing_terms

N_VALUES = (0, 1, 2, 7, 300, 10**4)
P_VALUES = (0.0, 1.0, 0.5, 0.013, 0.77, 1e-9, 1.0 - 1e-9)


def ref_logc(N):
    return np.array([log_binomial(N, k) for k in range(N + 1)])


def ref_binomial_amplitudes(N, p):
    if p == 0.0:
        w = np.zeros(N + 1)
        w[0] = 1.0
        return w
    if p == 1.0:
        w = np.zeros(N + 1)
        w[N] = 1.0
        return w
    n = np.arange(N + 1, dtype=float)
    logw = 0.5 * (ref_logc(N) + n * math.log(p) + (N - n) * math.log1p(-p))
    return np.exp(logw)


def ref_gbs_amp(params):
    amp = ref_binomial_amplitudes(params.N, params.p) * np.exp(
        1j * params.phi * np.arange(params.N + 1)
    )
    return amp / np.linalg.norm(amp)


def ref_gbs_overlap(a, b):
    N = a.N
    n = np.arange(N + 1, dtype=float)
    logc = ref_logc(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log(a.p * b.p)
        lq = np.log((1.0 - a.p) * (1.0 - b.p))
        logmod = logc.copy()
        logmod += np.where(n > 0, 0.5 * n * lp, 0.0)
        logmod += np.where(n < N, 0.5 * (N - n) * lq, 0.0)
    terms = np.exp(logmod) * np.exp(1j * n * (b.phi - a.phi))
    return complex(np.sum(terms))


def ref_cross_binomial_sum(N, M, p):
    n = np.arange(M + 1, dtype=float)
    logs = 0.5 * np.array([log_binomial(N, k) + log_binomial(M, k) for k in range(M + 1)])
    logs += n * math.log(p) + (M - n) * math.log1p(-p)
    return float(np.sum(np.exp(logs)))


def ref_squeezing_terms(N, p):
    if p in (0.0, 1.0) or N == 0:
        return SqueezingTerms(0.0, 0.0)
    b = 2.0 * math.sqrt(N * p * (1.0 - p)) * ref_cross_binomial_sum(N, N - 1, p)
    if N < 2:
        return SqueezingTerms(0.0, b)
    a = 2.0 * math.sqrt(N * (N - 1.0)) * p * (1.0 - p) * ref_cross_binomial_sum(N, N - 2, p)
    return SqueezingTerms(a, b)


def ref_closed_form_indexes(N, p, phi, terms=None):
    if terms is None:
        terms = ref_squeezing_terms(N, p)
    a, b2 = terms.A_term, terms.B_term ** 2
    cos2 = math.cos(2.0 * phi)
    s_x = -2.0 * N * p - a * cos2 + b2 * math.cos(phi) ** 2
    s_p = -2.0 * N * p + a * cos2 + b2 * math.sin(phi) ** 2
    return s_x, s_p


def assert_bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", N_VALUES)
def test_log_binomial_row_is_bit_equal(N):
    assert_bytes_equal(_log_binomial_row(N), ref_logc(N))


@pytest.mark.parametrize("N", N_VALUES)
def test_rows_sliced_from_a_larger_table_are_bit_equal(N):
    lg = _lgamma_table(N + 5)
    assert_bytes_equal(_log_binomial_row(N, lg), ref_logc(N))


def test_lgamma_table_entries():
    assert_bytes_equal(_lgamma_table(50), np.array([math.lgamma(k + 1) for k in range(51)]))
    assert _lgamma_table(0).tolist() == [0.0]


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_binomial_amplitudes_bit_equal(N, p):
    assert_bytes_equal(binomial_amplitudes(N, p), ref_binomial_amplitudes(N, p))


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_gbs_state_bit_equal(N, p):
    params = GbsParams(N, p, 1.3)
    assert_bytes_equal(gbs_state(params).amp, ref_gbs_amp(params))


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_gbs_overlap_bit_equal(N, p):
    a = GbsParams(N, p, 0.2)
    # the antipodal pair is spelled out: orthogonal_partner rejects N = 0
    antipode = GbsParams(N, 1.0 - p, 0.2 + math.pi)
    for b in (GbsParams(N, 0.31, 2.1), GbsParams(N, p, 5.0), antipode):
        got, want = gbs_overlap(a, b), ref_gbs_overlap(a, b)
        assert (got.real, got.imag) == (want.real, want.imag)


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_squeezing_terms_and_indexes_bit_equal(N, p):
    assert squeezing_terms(N, p) == ref_squeezing_terms(N, p)
    for phi in (0.0, 0.4, math.pi / 2, 3.0):
        assert closed_form_indexes(N, p, phi) == ref_closed_form_indexes(N, p, phi)


@pytest.mark.parametrize("N", (0, 1, 2, 5, 200, 10**4))
def test_every_scan_row_equals_closed_form_indexes(N):
    p_grid = np.linspace(0.0, 1.0, 11)
    phi_grid = np.linspace(0.0, 2.0 * math.pi, 9)
    rows = squeeze_scan(N, p_grid, phi_grid)
    assert len(rows) == p_grid.size * phi_grid.size
    ref_terms = {p: ref_squeezing_terms(N, p) for p in p_grid}
    for row in rows:
        assert (row.S_X, row.S_P) == closed_form_indexes(N, row.p, row.phi)
        assert (row.S_X, row.S_P) == ref_closed_form_indexes(N, row.p, row.phi, ref_terms[row.p])


def test_scan_builds_its_binomial_rows_once(monkeypatch):
    from gbstates import squeezing

    calls = []
    real = squeezing._cross_log_rows
    monkeypatch.setattr(squeezing, "_cross_log_rows", lambda N: calls.append(N) or real(N))
    squeeze_scan(50, np.linspace(0.0, 1.0, 7), [0.0, 1.0])
    assert calls == [50]


def test_scan_rejects_probability_outside_unit_interval():
    with pytest.raises(ValueError, match="probability"):
        squeeze_scan(5, [0.5, 1.5], [0.0])


@pytest.mark.parametrize("N", (-1, 2.5))
def test_closed_forms_reject_bad_photon_number_even_at_the_poles(N):
    # p in {0, 1} never reaches the binomial sums, so N must be checked first
    with pytest.raises(ValueError, match="non-negative integer"):
        squeezing_terms(N, 0.0)
    with pytest.raises(ValueError, match="non-negative integer"):
        closed_form_indexes(N, 1.0, 0.3)
    with pytest.raises(ValueError, match="non-negative integer"):
        squeeze_scan(N, [0.0, 1.0], [0.0])


@pytest.mark.parametrize("N", (1, 7, 300))
def test_expansion_series_bit_equal(N):
    rng = np.random.default_rng(N)
    v = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    psi = StateVector(v / np.linalg.norm(v))
    params = GbsParams(N, 0.37, 0.9)
    n = np.arange(N + 1, dtype=float)
    log_abs_tau = 0.5 * (math.log1p(-params.p) - math.log(params.p))
    coeff = np.exp(0.5 * ref_logc(N) + (N - n) * log_abs_tau)
    want = complex(np.sum(psi.amp * coeff * np.exp(-1j * n * params.phi)))
    assert expansion_amplitude_series(psi, params) == want


@pytest.mark.parametrize("alpha", (1.0, 3 + 2j, 0.5j))
def test_coherent_state_bit_equal(alpha):
    dim = 80
    a = abs(alpha)
    n = np.arange(dim, dtype=float)
    logmod = -0.5 * a * a + n * math.log(a) - 0.5 * np.array(
        [math.lgamma(k + 1) for k in range(dim)]
    )
    want = np.exp(logmod) * np.exp(1j * n * np.angle(alpha))
    want /= np.linalg.norm(want)
    assert_bytes_equal(coherent_state_truncated(alpha, dim).amp, want)
