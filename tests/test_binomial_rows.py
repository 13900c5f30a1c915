"""The vectorised log-binomial rows against the scalar loops they replaced.

Each reference below is the per-k list comprehension the library used
before its rows were vectorised. The row performs the same IEEE
operations in the same order, so every comparison is exact: bytes, not
a tolerance. The vector paths evaluate, normalise and sum each row on its
support interval alone, so a reference restricts its whole row to the
interval that the call recorded. Their phases come from one kernel,
gbs._phase_ramp, whose entries depend on (n, phi) alone: a reference takes
the whole-row ramp of that kernel and slices it, and the kernel itself is
checked against mpmath.
"""

import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbstates import gbs, squeezing
from gbstates.cas import CasParams, cas_state
from gbstates.gbs import (
    BlochAngles,
    GbsParams,
    _EXP_FLOOR,
    _lgamma_table,
    _log_binomial_row,
    _phase_ramp,
    binomial_amplitudes,
    coherent_state_truncated,
    gbs_overlap,
    gbs_state,
)
from gbstates.hilbert import StateVector
from gbstates.oracles import log_binomial
from gbstates.resolution import expansion_amplitude_series
from gbstates.squeezing import (
    SqueezeRow,
    SqueezingTerms,
    closed_form_indexes,
    squeeze_scan,
    squeezing_terms,
)

N_VALUES = (0, 1, 2, 7, 300, 10**4)
# the vector paths evaluate rows only on their support; at N = 1e5 most of
# every row underflows, and an antipode far from p = 1/2 underflows entirely
LARGE_N_VALUES = N_VALUES + (10**5,)
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


class RecordedSupports:
    """Patches gbs._support where the vector paths call it and records each
    (lo, hi) it returns, in call order."""

    def __init__(self, monkeypatch):
        self.intervals = []
        real = gbs._support

        def spy(*args):
            interval = real(*args)
            self.intervals.append(interval)
            return interval

        for module in (gbs, squeezing):
            monkeypatch.setattr(module, "_support", spy)

    def pop(self):
        (interval,) = self.intervals
        self.intervals.clear()
        return interval

    def take(self):
        """Every interval recorded since the last pop or take."""
        intervals = list(self.intervals)
        self.intervals.clear()
        return intervals

    def row(self, N, p):
        """The interval of the binomial row of (N, p) just evaluated: the
        recorded one, or the one entry that the poles p = 0, 1 set without a search."""
        if p == 0.0:
            return 0, 1
        if p == 1.0:
            return N, N + 1
        return self.pop()


def assert_positive_zeros_outside(full, interval):
    lo, hi = interval
    outside = np.concatenate((full[:lo], full[hi:]))
    assert not outside.any() and not np.signbit(outside).any()


def assert_below_floor_outside(terms, interval):
    """Every term outside interval is at most 2^-64 of the sum of the moduli of
    the whole row, over the count of its terms: together they cannot reach the
    last bit of the sum. Below the underflow floor they are +0.0."""
    lo, hi = interval
    mags = np.abs(terms)
    outside = np.concatenate((mags[:lo], mags[hi:]))
    assert (outside <= 2.0**-64 * math.fsum(mags) / mags.size).all()


def whole_ramp(phi, size):
    """e^(i phi n) for n = 0..size - 1: the kernel's whole row."""
    return _phase_ramp(phi, 0, np.empty(size, dtype=np.complex128))


def normalised(row):
    """row times the reciprocal of its norm, both on its real and imaginary parts."""
    parts = row.view(float)
    return (parts * (1.0 / np.linalg.norm(parts))).view(np.complex128)


def state_on_support(moduli, ramp, interval, dim):
    """The out-of-place product moduli * ramp over the whole row, restricted to
    interval (outside which every modulus is +0.0) and normalised there, in a
    zero row of dim entries; every signed zero becomes +0.0."""
    assert_positive_zeros_outside(moduli, interval)
    lo, hi = interval
    amp = np.zeros(dim, dtype=np.complex128)
    amp[lo:hi] = normalised((moduli * ramp)[lo:hi]) + 0.0
    return amp


def ref_gbs_amp(params, interval, dim=None):
    N = params.N
    ramp = whole_ramp(params.phi, N + 1)
    return state_on_support(ref_binomial_amplitudes(N, params.p), ramp, interval, dim or N + 1)


def full_overlap_moduli(a, b):
    """The overlap moduli over the whole row, as gbs_overlap computed them before
    it evaluated the support alone."""
    N = a.N
    n = np.arange(N + 1, dtype=float)
    logmod = _log_binomial_row(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log(a.p * b.p)
        lq = np.log((1.0 - a.p) * (1.0 - b.p))
        logmod += np.where(n > 0, 0.5 * n * lp, 0.0)
        logmod += np.where(n < N, 0.5 * (N - n) * lq, 0.0)
    return np.exp(logmod)


def ref_gbs_overlap(a, b, interval):
    """The whole row of overlap terms, summed over interval alone."""
    moduli = full_overlap_moduli(a, b)
    assert_below_floor_outside(moduli, interval)
    terms = moduli * whole_ramp(b.phi - a.phi, a.N + 1)
    lo, hi = interval
    return complex(np.sum(terms[lo:hi]))


def full_moment_terms(N, p):
    """The whole rows b_n, b_n sqrt((N-1-n)/(N-n)) and b_n sqrt(N/(N-n)),
    n = 0..N-1, with b_n the binomial row of (N-1, p): the terms of the three
    sums behind the moments of A and B."""
    n = np.arange(N, dtype=float)
    logs = ref_logc(N - 1) + n * math.log(p) + (N - 1 - n) * math.log1p(-p)
    b = np.exp(logs)
    return b, b * np.sqrt((N - 1 - n) / (N - n)), b * np.sqrt(N / (N - n))


def ref_moment_sums(N, p, interval):
    """The whole rows of the moment sums, each summed over interval alone: every
    term outside it is below the floor of assert_below_floor_outside."""
    n = np.arange(N, dtype=float)
    b, _, _ = rows = full_moment_terms(N, p)
    for row in rows:
        assert_below_floor_outside(row, interval)
    lo, hi = interval
    window = b[lo:hi]
    a_weight, b_weight = (np.sqrt(x / (N - n))[lo:hi] for x in (N - 1 - n, N))
    return np.sum(window), np.sum(window * a_weight), np.sum(window * b_weight)


def ref_squeezing_terms(N, p, intervals):
    """A = 2 N p E[sqrt((N-1-n)/(N-n))] and B = 2 sqrt(N p q) E[sqrt(N/(N-n))],
    n ~ Bin(N-1, p), each E over the one interval that squeezing_terms(N, p) recorded."""
    if p in (0.0, 1.0) or N == 0:
        assert intervals == []
        return SqueezingTerms(0.0, 0.0)
    (interval,) = intervals
    total, a_sum, b_sum = ref_moment_sums(N, p, interval)
    a = 2.0 * N * p * float(a_sum / total)
    return SqueezingTerms(a, 2.0 * math.sqrt(N * p * (1.0 - p)) * float(b_sum / total))


def recorded_squeezing_terms(N, p):
    """(squeezing_terms(N, p), its reference over the supports the call recorded)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorded = RecordedSupports(monkeypatch)
        terms = squeezing_terms(N, p)
        return terms, ref_squeezing_terms(N, p, recorded.take())


def ref_closed_form_indexes(N, p, phi, terms):
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
    _lgamma_table(N + 5)  # the shared table now reaches past N
    assert_bytes_equal(_log_binomial_row(N), ref_logc(N))


def test_lgamma_table_entries():
    assert_bytes_equal(_lgamma_table(50), np.array([math.lgamma(k + 1) for k in range(51)]))
    assert _lgamma_table(0).tolist() == [0.0]


@pytest.mark.parametrize("N", LARGE_N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_binomial_amplitudes_bit_equal(N, p):
    assert_bytes_equal(binomial_amplitudes(N, p), ref_binomial_amplitudes(N, p))


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_gbs_state_bit_equal(N, p, monkeypatch):
    recorded = RecordedSupports(monkeypatch)
    params = GbsParams(N, p, 1.3)
    amp = gbs_state(params).amp
    assert_bytes_equal(amp, ref_gbs_amp(params, recorded.row(N, p)))


@pytest.mark.parametrize("N", LARGE_N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_gbs_overlap_bit_equal(N, p, monkeypatch):
    a = GbsParams(N, p, 0.2)
    # the antipodal pair is spelled out: orthogonal_partner rejects N = 0
    antipode = GbsParams(N, 1.0 - p, 0.2 + math.pi)
    recorded = RecordedSupports(monkeypatch)
    for b in (GbsParams(N, 0.31, 2.1), GbsParams(N, p, 5.0), antipode):
        got = gbs_overlap(a, b)
        want = ref_gbs_overlap(a, b, recorded.pop())
        assert (got.real, got.imag) == (want.real, want.imag)


@pytest.mark.parametrize("N", LARGE_N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
def test_squeezing_terms_and_indexes_bit_equal(N, p):
    terms, want = recorded_squeezing_terms(N, p)
    assert terms == want
    phis = (0.0, 0.4, math.pi / 2, 3.0)
    for phi in phis:
        assert closed_form_indexes(N, p, phi) == ref_closed_form_indexes(N, p, phi, want)
    if 0.0 < p < 1.0 and N > 0:
        assert_squeezing_near_mpmath(N, p, phis)


@pytest.mark.parametrize("N", (0, 1, 2, 5, 200, 10**4, 10**5))
def test_every_scan_row_equals_closed_form_indexes(N):
    p_grid = np.linspace(0.0, 1.0, 11)
    phi_grid = np.linspace(0.0, 2.0 * math.pi, 9)
    rows = squeeze_scan(N, p_grid, phi_grid)
    assert len(rows) == p_grid.size * phi_grid.size
    ref_terms = {p: recorded_squeezing_terms(N, p)[1] for p in p_grid}
    for row in rows:
        assert (row.S_X, row.S_P) == closed_form_indexes(N, row.p, row.phi)
        assert (row.S_X, row.S_P) == ref_closed_form_indexes(N, row.p, row.phi, ref_terms[row.p])


@st.composite
def scan_p_grids(draw):
    """Unsorted p grids holding the poles, the extreme representable p and duplicates."""
    grid = draw(st.lists(st.floats(0.0, 1.0), max_size=5)) + [0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
    grid += draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3))
    return draw(st.permutations(grid))


@st.composite
def scan_phi_grids(draw):
    """Unsorted angle grids with negative, tiny and large angles."""
    grid = draw(st.lists(st.floats(-1e9, 1e9), max_size=4)) + [-2.7, -1e-20, 0.0, 1e6]
    return draw(st.permutations(grid))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 * 10**4), scan_p_grids(), scan_phi_grids())
@example(0, [1.0, 0.0, 0.5], [0.0, -1.0])
@example(1, [0.3, 5e-324, 0.3], [3.0, -1e9])
@example(2 * 10**4, [1.0 - 2.0**-53, 0.37, 0.0, 0.37], [1e6, -2.7])
def test_every_scan_row_is_closed_form_indexes_bytewise(N, p_grid, phi_grid):
    rows = squeeze_scan(N, p_grid, phi_grid)
    points = [(p, phi) for p in p_grid for phi in phi_grid]
    assert len(rows) == len(points)
    for row, (p, phi) in zip(rows, points):
        assert type(row) is SqueezeRow
        assert (row.N, row.source, row.stats) == (N, "closed_form", None)
        assert_bytes_equal(np.array([row.p, row.phi]), np.array([p, phi]))
        assert_bytes_equal(np.array([row.S_X, row.S_P]), np.array(closed_form_indexes(N, p, phi)))


def test_squeeze_row_is_an_immutable_named_tuple():
    assert SqueezeRow._fields == ("N", "p", "phi", "S_X", "S_P", "source", "stats")
    assert SqueezeRow._field_defaults == {"stats": None}
    row = SqueezeRow(3, 0.25, 1.5, -0.1, 0.2, "closed_form")
    assert row.stats is None
    with pytest.raises(AttributeError):
        row.S_X = 0.0
    assert row._replace(S_X=1.0) == SqueezeRow(3, 0.25, 1.5, 1.0, 0.2, "closed_form", None)
    assert row._asdict() == dict(
        N=3, p=0.25, phi=1.5, S_X=-0.1, S_P=0.2, source="closed_form", stats=None
    )
    twin = SqueezeRow(3, 0.25, 1.5, -0.1, 0.2, "closed_form")
    assert twin == row and hash(twin) == hash(row)
    for source in ("closed_form", "direct"):
        first, again = (squeeze_scan(3, [0.25], [1.5], source) for _ in range(2))
        assert type(first[0]) is SqueezeRow and first[0]._fields == SqueezeRow._fields
        assert first == again and hash(first[0]) == hash(again[0])
        with pytest.raises(AttributeError):
            first[0].p = 0.5


def test_scan_builds_its_binomial_rows_once(monkeypatch):
    from gbstates import squeezing

    calls = []
    real = squeezing._moment_weights
    monkeypatch.setattr(squeezing, "_moment_weights", lambda *a: calls.append(a) or real(*a))
    squeeze_scan(50, np.linspace(0.0, 1.0, 7), [0.0, 1.0])
    assert calls == [(50,)]  # the p-independent weight rows, once for the whole grid


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
    want = complex(np.sum(psi.amp * coeff * whole_ramp(-params.phi, N + 1)))
    assert expansion_amplitude_series(psi, params) == want


@pytest.mark.parametrize("alpha", (1.0, 3 + 2j, 0.5j))
def test_coherent_state_bit_equal(alpha):
    dim = 80
    a = abs(alpha)
    n = np.arange(dim, dtype=float)
    logmod = -0.5 * a * a + n * math.log(a) - 0.5 * np.array(
        [math.lgamma(k + 1) for k in range(dim)]
    )
    want = normalised(np.exp(logmod) * whole_ramp(np.angle(alpha), dim)) + 0.0
    assert_bytes_equal(coherent_state_truncated(alpha, dim).amp, want)


# --- the shared lgamma table ---------------------------------------------

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(gbs.__file__).resolve().parent.parent)
GROWTH_NS = (10**3, 10**5)


def table_dependent_digest(N):
    """sha256 over the bytes of every table-backed result at N."""
    h = hashlib.sha256()
    for p, phi in ((0.37, 1.3), (0.999, 4.0)):
        a = GbsParams(N, p, phi)
        h.update(gbs_state(a).amp.tobytes())
        z = gbs_overlap(a, GbsParams(N, 0.2, 0.4))
        h.update(np.array([z.real, z.imag]).tobytes())
        h.update(np.array(closed_form_indexes(N, p, phi)).tobytes())
    rows = squeeze_scan(N, np.linspace(0.0, 1.0, 5), [0.0, 1.0])
    h.update(np.array([(r.S_X, r.S_P) for r in rows]).tobytes())
    h.update(coherent_state_truncated(3 + 2j, N + 1).amp.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def fresh_process_digests():
    """table_dependent_digest(N) from a new interpreter per N, whose table never exceeds N."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, TESTS, env.get("PYTHONPATH")]))
    digests = {}
    for N in GROWTH_NS:
        script = f"from test_binomial_rows import table_dependent_digest as f; print(f({N}))"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests[N] = proc.stdout.strip()
    return digests


@pytest.fixture
def empty_table(monkeypatch):
    """Start the shared table from scratch; the previous one comes back afterwards."""
    empty = np.empty(0)
    empty.setflags(write=False)
    monkeypatch.setattr(gbs, "_LGAMMA", empty)


@pytest.mark.parametrize("order", [GROWTH_NS, GROWTH_NS[::-1]], ids=["ascending", "descending"])
def test_results_do_not_depend_on_table_growth_order(empty_table, fresh_process_digests, order):
    first = {N: table_dependent_digest(N) for N in order}
    assert gbs._LGAMMA.size == max(GROWTH_NS) + 1
    again = {N: table_dependent_digest(N) for N in GROWTH_NS}
    assert first == again == fresh_process_digests


def test_table_grows_only_on_demand_and_serves_prefixes(empty_table):
    lg = _lgamma_table(7)
    assert gbs._LGAMMA.size == 8
    assert _lgamma_table(3).base is gbs._LGAMMA and gbs._LGAMMA.size == 8
    _lgamma_table(100)
    assert gbs._LGAMMA.size == 101
    assert_bytes_equal(_lgamma_table(7), lg)


def test_concurrent_growth_serves_whole_tables(empty_table):
    want = np.array([math.lgamma(k + 1) for k in range(4001)])
    sizes = [int(x) for x in np.random.default_rng(9).integers(0, 4000, size=400)]
    bad = []

    def worker(offset):
        for n in sizes[offset::8]:
            lg = _lgamma_table(n)
            if lg.size != n + 1 or lg.tobytes() != want[: n + 1].tobytes():
                bad.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_shared_table_is_read_only():
    lg = _lgamma_table(20)
    with pytest.raises(ValueError, match="read-only"):
        lg[3] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        gbs._LGAMMA[0] = 1.0


def test_failed_growth_keeps_the_previous_table(empty_table, monkeypatch, fresh_process_digests):
    N = GROWTH_NS[0]
    before = table_dependent_digest(N)
    table = gbs._LGAMMA

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "fromiter", no_memory)
    with pytest.raises(MemoryError):
        gbs_state(GbsParams(2 * N, 0.3))
    with pytest.raises(MemoryError):
        _lgamma_table(10**11)
    assert gbs._LGAMMA is table
    # smaller N are served from the kept table, without growing it
    assert table_dependent_digest(N) == before == fresh_process_digests[N]
    params = GbsParams(300, 0.77, 1.3)
    assert_bytes_equal(gbs_state(params).amp, ref_gbs_amp(params, (0, 301)))


# --- in-place phase ramps against the out-of-place products they replaced ---
# Each state is the whole-row out-of-place product restricted to the support
# that the call recorded, normalised there, with every zero +0.0.

RAMP_NS = (0, 1, 2, 7, 300)
RAMP_PS = (0.0, 1.0, 0.37, 1e-9, 1.0 - 1e-9)
RAMP_PHIS = (0.0, 1.3, -2.7, -1e6, 1e6)


@pytest.mark.parametrize("N", (10**4, 16382, 16383, 10**5))
@pytest.mark.parametrize("p", (0.37, 0.77))
def test_in_place_ramps_keep_the_sign_of_underflowed_zeros(N, p, monkeypatch):
    # about N = 16383 numpy starts to evaluate moduli * ramp as ramp *= moduli;
    # the two orders differ in the sign of zero where the tail moduli underflow,
    # and on either side of it every zero of the states is +0.0
    recorded = RecordedSupports(monkeypatch)
    phi = -2.7
    params = GbsParams(N, p, phi)
    amp = gbs_state(params).amp
    assert_bytes_equal(amp, ref_gbs_amp(params, recorded.pop()))
    other = GbsParams(N, 0.999, 1.0)
    for a, b in ((params, other), (other, params)):
        got = gbs_overlap(a, b)
        want = ref_gbs_overlap(a, b, recorded.pop())
        assert (got.real, got.imag) == (want.real, want.imag)
    angles = BlochAngles(2.0 * math.acos(math.sqrt(p)), phi)
    amp = cas_state(CasParams(N / 2, angles)).amp
    assert_bytes_equal(amp, out_of_place_cas_amp(N, angles, recorded))
    assert_bytes_equal(
        coherent_state_truncated(3 - 2j, N + 1).amp, out_of_place_coherent_amp(3 - 2j, N + 1)
    )


def out_of_place_cas_amp(two_j, angles, recorded):
    """The CAS from the whole (mirrored below theta = pi/2) binomial row, on the
    support that cas_state just recorded."""
    half = angles.theta / 2.0
    mirrored = half < math.pi / 4.0
    p = math.sin(half) ** 2 if mirrored else math.cos(half) ** 2
    lo, hi = recorded.row(two_j, p)
    mods = ref_binomial_amplitudes(two_j, p)
    if mirrored:
        mods, lo, hi = mods[::-1], two_j + 1 - hi, two_j + 1 - lo
    return state_on_support(mods, whole_ramp(-angles.varphi, two_j + 1), (lo, hi), two_j + 1)


def out_of_place_coherent_amp(alpha, dim):
    a = abs(alpha)
    n = np.arange(dim, dtype=float)
    logmod = -0.5 * a * a + n * math.log(a) - 0.5 * _lgamma_table(dim - 1)
    return state_on_support(np.exp(logmod), whole_ramp(np.angle(alpha), dim), (0, dim), dim)


@pytest.mark.parametrize("N", RAMP_NS)
@pytest.mark.parametrize("p", RAMP_PS)
def test_in_place_ramps_are_bit_equal_to_the_out_of_place_products(N, p, monkeypatch):
    recorded = RecordedSupports(monkeypatch)
    for phi in RAMP_PHIS:
        params = GbsParams(N, p, phi)
        for dim in (N + 1, N + 4):
            amp = gbs_state(params, dim).amp
            assert_bytes_equal(amp, ref_gbs_amp(params, recorded.row(N, p), dim))
        for other in (GbsParams(N, 0.2, -phi), GbsParams(N, 1.0 - p, phi + 3.0), params):
            # both orders, so that the phase difference takes either sign
            for a, b in ((params, other), (other, params)):
                got = gbs_overlap(a, b)
                want = ref_gbs_overlap(a, b, recorded.pop())
                assert (got.real, got.imag) == (want.real, want.imag)
        theta = 2.0 * math.atan2(math.sqrt(1.0 - p), math.sqrt(p))
        for angles in (BlochAngles(theta, phi), BlochAngles(math.pi - theta, -phi)):
            amp = cas_state(CasParams(N / 2, angles)).amp
            assert_bytes_equal(amp, out_of_place_cas_amp(N, angles, recorded))


# --- support intervals: every term outside them is below their floor -------

EDGE_PS = (0.0, 1.0, 5e-324, 2.2e-308, 1e-300, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53)
probabilities = st.one_of(st.sampled_from(EDGE_PS), st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 * 10**5), probabilities, probabilities)
@example(10**5, 0.013, 0.987)  # an antipode whose every term underflows
@example(10**5, 0.37, 0.37)
@example(2 * 10**5, 5e-324, 1.0 - 2.0**-53)
@example(1, 0.5, 0.0)
@example(0, 0.0, 1.0)
def test_rows_vanish_outside_their_support(N, p, p2):
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorded = RecordedSupports(monkeypatch)
        n = np.arange(N + 1, dtype=float)
        amplitudes = binomial_amplitudes(N, p)
        if 0.0 < p < 1.0:
            logw = 0.5 * (_log_binomial_row(N) + n * math.log(p) + (N - n) * math.log1p(-p))
            full = np.exp(logw)
            assert_positive_zeros_outside(full, recorded.pop())
            assert_bytes_equal(amplitudes, full)

        a, b = GbsParams(N, p, 0.0), GbsParams(N, p2, 0.0)
        z = gbs_overlap(a, b)
        full = full_overlap_moduli(a, b)
        lo, hi = recorded.pop()
        assert_below_floor_outside(full, (lo, hi))
        # equal phases: each term is its modulus, summed in complex pairwise order
        want = complex(np.sum(full[lo:hi].astype(np.complex128)))
        assert (z.real, z.imag) == (want.real, want.imag)

        squeezing_terms(N, p)
        if 0.0 < p < 1.0 and N > 0:
            (interval,) = recorded.intervals
            for row in full_moment_terms(N, p):
                assert_below_floor_outside(row, interval)


def assert_unsigned_zeros(amp):
    parts = amp.view(float)  # the real and imaginary parts of a complex row
    assert not np.signbit(parts[parts == 0.0]).any()


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 * 10**5), st.sampled_from(EDGE_PS), st.floats(-1e3, 1e3))
@example(10**5, 0.37, 1.2)
@example(16383, 0.5, -2.7)
@example(2 * 10**5, 1.0 - 2.0**-53, 4.0)
def test_no_amplitude_is_a_signed_zero(N, p, phi):
    assert not np.signbit(binomial_amplitudes(N, p)).any()
    assert_unsigned_zeros(gbs_state(GbsParams(N, p, phi)).amp)
    theta = 2.0 * math.atan2(math.sqrt(1.0 - p), math.sqrt(p))
    for angles in (BlochAngles(theta, phi), BlochAngles(math.pi - theta, -phi)):
        assert_unsigned_zeros(cas_state(CasParams(N / 2, angles)).amp)
    if N >= 69:  # |alpha|^2 + 10 |alpha| + 20 <= dim at |alpha| = |3 - 2j|
        assert_unsigned_zeros(coherent_state_truncated(3 - 2j, N + 1).amp)


def bisected_support(N, log_r, log_q, log_floor):
    """gbs._support as it was when it bisected both ends of the interval: the
    reference that the Newton ends are checked against."""
    if N == 0:
        return 0, 1
    if log_floor > 0.0:
        return 0, 0
    if log_r == -math.inf:
        return 0, 1
    if log_q == -math.inf:
        return N, N + 1
    threshold = log_floor - 1.0 - 1e-12 * (
        N * (4.0 * math.log(N + 1.0) - log_r - log_q) - log_floor
    )
    if N * min(log_r, log_q) >= threshold:
        return 0, N + 1

    def above(n):
        m = N - n
        g = n * log_r + m * log_q
        if n:
            g -= n * math.log(n / N)
        if m:
            g -= m * math.log(m / N)
        return g >= threshold

    peak = min(int(N * math.exp(log_r)), N)
    if not above(peak):
        peak += 1
        if peak > N or not above(peak):
            return 0, 0
    lo, good = 0, peak
    while lo < good:
        mid = (lo + good) // 2
        if above(mid):
            good = mid
        else:
            lo = mid + 1
    good, hi = peak, N + 1
    while good + 1 < hi:
        mid = (good + hi) // 2
        if above(mid):
            good = mid
        else:
            hi = mid
    return lo, hi


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 * 10**5), probabilities, probabilities)
@example(10**5, 0.013, 0.987)
@example(10**4, 0.37, 0.37)
@example(2184, 0.5, 0.5)  # an end so close to 0 that Newton starts outside the row
@example(2 * 10**5, 5e-324, 1.0 - 2.0**-53)
@example(1, 0.5, 0.0)
def test_newton_support_matches_the_bisected_one(N, p, p2):
    calls = []
    real = gbs._support
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module in (gbs, squeezing):
            monkeypatch.setattr(module, "_support", lambda *a: calls.append(a) or real(*a))
        binomial_amplitudes(N, p)
        gbs_overlap(GbsParams(N, p, 0.0), GbsParams(N, p2, 0.0))
        squeezing_terms(N, p)
    assert calls
    for args in calls:
        (lo, hi), (ref_lo, ref_hi) = real(*args), bisected_support(*args)
        assert abs(lo - ref_lo) <= 1 and abs(hi - ref_hi) <= 1, args


def test_support_covers_a_few_standard_deviations_at_large_n():
    N = 10**5
    for p in (0.5, 0.37, 1e-3):
        lo, hi = gbs._support(N, math.log(p), math.log1p(-p), 2.0 * _EXP_FLOOR)
        sigma = math.sqrt(N * p * (1.0 - p))
        assert lo <= N * p <= hi and hi - lo < 120.0 * sigma
    # the orthogonal partner far from p = 1/2 has no term above the floor
    a = GbsParams(N, 0.2, 0.3)
    log_s = math.log(2.0 * math.sqrt(0.2 * 0.8))
    assert gbs._support(N, math.log(0.5), math.log(0.5), _EXP_FLOOR - N * log_s) == (0, 0)
    assert gbs_overlap(a, gbs.orthogonal_partner(a)) == 0j


# --- the window sums against the whole rows ------------------------------
# Each window leaves out terms that add up to under 2^-64 of the sum of the
# moduli of the whole row; the checks below allow 2^-60 for the terms left
# out, and separately 2^-46 of that sum for the pairwise roundoff of the sums.


def assert_window_sum(got, terms, interval):
    """got, the sum of the complex or real row terms over interval, against the
    exactly rounded sum of the whole row."""
    lo, hi = interval
    mags = np.abs(terms)
    total = math.fsum(mags)
    assert math.fsum(mags[:lo]) + math.fsum(mags[hi:]) <= 2.0**-60 * total
    parts = np.asarray(terms, dtype=np.complex128).view(float)
    whole = complex(math.fsum(parts[0::2]), math.fsum(parts[1::2]))
    assert abs(got - whole) <= (2.0**-60 + 2.0**-46) * total


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 * 10**5), probabilities, probabilities, st.floats(-7.0, 7.0))
@example(10**5, 0.5, 0.5, 0.0)
@example(10**5, 0.013, 0.013, 1.0)
@example(2 * 10**5, 1e-9, 1.0 - 1e-9, 2.0)
@example(2, 1.0 - 1e-9, 0.5, -3.0)
@example(1, 0.3, 0.6, 0.0)
def test_window_sums_equal_the_whole_row_sums(N, p, p2, phi):
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorded = RecordedSupports(monkeypatch)
        a = GbsParams(N, p, 0.0)
        for b in (GbsParams(N, p2, phi), GbsParams(N, 1.0 - p, math.pi)):  # and the antipode
            got = gbs_overlap(a, b)
            terms = full_overlap_moduli(a, b) * whole_ramp(b.phi - a.phi, N + 1)
            assert_window_sum(got, terms, recorded.pop())
        if 0.0 < p < 1.0 and N > 0:
            # the sums behind A = 2 N p a_sum / total and B = 2 sqrt(N p q) b_sum / total
            sums = squeezing._moment_sums(N, p, None)
            interval = recorded.pop()
            for got, row in zip(sums, full_moment_terms(N, p)):
                assert_window_sum(got, row, interval)


def mp_squeezing_terms(N, p):
    """A and B at 40 digits in the paper's form: the cross sums of C(N,n) with
    C(N-1,n) and with C(N-2,n), by exact binomial recurrences. Each sum runs
    over Np -+ (14 sigma + 14), sigma = sqrt(N p q), where the terms left out
    are below 1e-30 of it (1.7e-35 at N = 300, p = 0.013)."""
    half = 14.0 * math.sqrt(N * p * (1.0 - p)) + 14.0
    lo, hi = max(0, math.floor(N * p - half)), math.ceil(N * p + half)
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        q = 1 - p

        def cross_sum(M):
            total, first = mpmath.mpf(0), min(lo, max(M, 0))
            c_n, c_m = mpmath.binomial(N, first), mpmath.binomial(M, first)
            for n in range(first, min(hi, M) + 1):
                total += mpmath.sqrt(c_n * c_m) * p**n * q ** (M - n)
                c_n, c_m = c_n * (N - n) / (n + 1), c_m * (M - n) / (n + 1)
            return total

        b = 2 * mpmath.sqrt(N * p * q) * cross_sum(N - 1)
        a = 2 * mpmath.sqrt(N * (N - 1)) * p * q * cross_sum(N - 2)
        return a, b


def mp_closed_form_indexes(N, p, phi, terms):
    """(S_X, S_P) at 40 digits from the mp_squeezing_terms (A, B)."""
    a, b = terms
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        cos2, cos_sq, sin_sq = mpmath.cos(2 * phi), mpmath.cos(phi) ** 2, mpmath.sin(phi) ** 2
        return -2 * N * p - a * cos2 + b**2 * cos_sq, -2 * N * p + a * cos2 + b**2 * sin_sq


def assert_squeezing_near_mpmath(N, p, phis):
    """A and B within 16 N eps relative of mpmath, and S_X, S_P within 8 eps N^1.5
    at each phi: the moments cancel the rounding common to the lgamma row, and
    what is left, multiplied by B^2 ~ 4 N p, grows about as N^1.5."""
    eps = np.finfo(float).eps
    terms = squeezing_terms(N, p)
    a, b = ref = mp_squeezing_terms(N, p)
    assert abs(terms.A_term - a) <= 16.0 * N * eps * a
    assert abs(terms.B_term - b) <= 16.0 * N * eps * b
    for phi in phis:
        s_x, s_p = mp_closed_form_indexes(N, p, phi, ref)
        got_x, got_p = closed_form_indexes(N, p, phi)
        assert max(abs(got_x - s_x), abs(got_p - s_p)) <= 8.0 * eps * N**1.5, phi


@pytest.mark.parametrize("N", (2, 3, 50, 1000, 4000))
@pytest.mark.parametrize("p", (1e-9, 0.013, 0.37, 0.5, 0.77, 1.0 - 1e-9))
def test_squeezing_terms_against_mpmath(N, p):
    # the one-row lgamma form measured 1.4e-12 relative at N = 1000 and 2.0e-12
    # at N = 4000; its S_X was off by 1.4e-9 at N = 1000, the moments by 1.7e-12
    assert_squeezing_near_mpmath(N, p, (0.0, 0.4, math.pi / 2, 3.0))


@pytest.mark.parametrize("N", (10**3, 10**4, 10**5))
@pytest.mark.parametrize("p, phi", ((0.37, 1.2), (0.5, 0.3), (0.83, 2.0), (0.12, 0.7)))
def test_closed_form_indexes_against_mpmath_at_large_n(N, p, phi):
    # the bound 8 eps N^1.5 is 5.6e-11, 1.8e-9 and 5.6e-8; the half-sum of two
    # lgamma rows before the moments was off by 1.4e-9, 2.9e-7 and 2.4e-5
    assert_squeezing_near_mpmath(N, p, (phi,))


# --- the windows stay narrow ----------------------------------------------


def test_scan_finds_one_window_per_probability(monkeypatch):
    recorded = RecordedSupports(monkeypatch)
    p_grid = [0.0, 0.2, 0.5, 1.0, 0.2, 1e-9]
    squeeze_scan(300, p_grid, [0.0, 1.0, 2.0])
    assert len(recorded.take()) == 4  # one per p strictly inside (0, 1)
    squeeze_scan(0, p_grid, [0.0])
    assert recorded.take() == []


def test_windows_hold_a_few_thousand_entries_at_large_n(monkeypatch):
    # a window of the underflow floor held about 11900 entries here
    recorded = RecordedSupports(monkeypatch)
    N = 10**5
    half = GbsParams(N, 0.5, 0.0)
    gbs_overlap(half, half)
    squeezing_terms(N, 0.5)
    for lo, hi in recorded.take():
        assert lo < N / 2 < hi and hi - lo <= 4500
