"""Tests for the orthonormal ladder basis between two orthogonal states.

The ladder is one tridiagonal eigensolve. The earlier builds, a normalized
raising recursion for the basis and the (Jplus')^m / m! closed form for a
single state, are kept here as references.
"""

import math

import mpmath
import numpy as np
import pytest

from gbstates.delta_basis import delta_basis, delta_state
from gbstates.gbs import GbsParams, gbs_state, orthogonal_partner
from gbstates.hilbert import basis_state, inner
from gbstates.hp_algebra import RotationSpec, rotated_operators, rotation_operator
from gbstates.oracles import log_binomial

TWO_PI = 2 * math.pi


def eq16_middle_state(p, phi):
    return np.array(
        [
            math.sqrt(2 * p * (1 - p)),
            (2 * p - 1) * np.exp(1j * phi),
            -math.sqrt(2 * p * (1 - p)) * np.exp(2j * phi),
        ]
    )


def test_two_photon_middle_state_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, phi = rng.uniform(0.02, 0.98), rng.random() * TWO_PI
        mid = delta_basis(2, p, phi).states[1]
        np.testing.assert_allclose(mid.amp, eq16_middle_state(p, phi), atol=1e-12)


def test_two_photon_balanced_middle_state():
    mid = delta_basis(2, 0.5, 0.0).states[1]
    np.testing.assert_allclose(mid.amp, [1 / math.sqrt(2), 0, -1 / math.sqrt(2)], atol=1e-14)


def test_endpoints_are_the_orthogonal_pair():
    params = GbsParams(9, 0.71, 1.4)
    basis = delta_basis(params.N, params.p, params.phi)
    assert abs(inner(basis.states[9], gbs_state(params))) ** 2 == pytest.approx(1.0, abs=1e-10)
    partner = gbs_state(orthogonal_partner(params))
    assert abs(inner(basis.states[0], partner)) ** 2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_zero_photon_ladder_is_the_vacuum(p):
    # N = 0 has no orthogonal partner to start the ladder from
    assert [s.amp.tolist() for s in delta_basis(0, p, 1.2).states] == [[1.0]]
    assert delta_state(0, 0, p, 1.2).amp.tolist() == [1.0]


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_orthonormality_and_ladder_eigenvalues(n):
    p, phi = 0.37, 2.1
    basis = delta_basis(n, p, phi)
    gram = np.array([[inner(a, b) for b in basis.states] for a in basis.states])
    assert np.abs(gram - np.eye(n + 1)).max() <= 1e-10
    j3p = rotated_operators(n, p, phi).J3
    for m, s in enumerate(basis.states):
        assert np.abs((j3p @ s).amp - (m - n / 2) * s.amp).max() <= 1e-9


def test_completeness_sum():
    n = 11
    basis = delta_basis(n, 0.62, 0.4)
    total = sum(np.outer(s.amp, s.amp.conj()) for s in basis.states)
    assert np.abs(total - np.eye(n + 1)).max() <= 1e-10


def test_closed_form_matches_recursion():
    rng = np.random.default_rng(32)
    for _ in range(15):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(0, n + 1))
        p, phi = rng.uniform(0.05, 0.95), rng.random() * TWO_PI
        ladder = delta_basis(n, p, phi).states[m]
        single = delta_state(n, m, p, phi)
        assert abs(inner(single, ladder)) >= 1 - 1e-10


def test_basis_matches_rotation_columns():
    n, p, phi = 8, 0.44, 5.0
    basis = delta_basis(n, p, phi)
    r = rotation_operator(n, RotationSpec.from_gbs(GbsParams(n, p, phi)))
    for m, s in enumerate(basis.states):
        assert abs(inner(s, r @ basis_state(n + 1, m))) == pytest.approx(1.0, abs=1e-10)


def test_degenerate_probabilities_return_number_basis():
    basis = delta_basis(3, 1.0, 0.7)
    for m, s in enumerate(basis.states):
        np.testing.assert_array_equal(s.amp, basis_state(4, m).amp)
    reversed_basis = delta_basis(3, 0.0, 0.7)
    for m, s in enumerate(reversed_basis.states):
        np.testing.assert_array_equal(s.amp, basis_state(4, 3 - m).amp)


def test_near_degenerate_limit_approaches_number_basis():
    basis = delta_basis(4, 1.0 - 1e-9, 0.0)
    for m, s in enumerate(basis.states):
        assert abs(inner(s, basis_state(5, m))) ** 2 >= 1 - 1e-6


def test_single_photon_top_state():
    # one raising application on the partner: (|0> + |1>)/sqrt(2) up to phase
    top = delta_state(1, 1, 0.5, 0.0)
    np.testing.assert_allclose(np.abs(top.amp), [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_ladder_index_validated():
    with pytest.raises(ValueError, match="ladder index"):
        delta_state(3, 4, 0.5, 0.0)


@pytest.mark.parametrize("m", [1.5, True, math.nan, math.inf, -1])
def test_ladder_index_must_be_an_integer_in_range(m):
    with pytest.raises(ValueError, match=rf"ladder index m={m} must be an integer in \[0, 3\]"):
        delta_state(3, m, 0.3, 0.0)


def test_integral_float_ladder_index_is_the_integer():
    assert delta_state(3, 2.0, 0.3, 0.7).amp.tobytes() == delta_state(3, 2, 0.3, 0.7).amp.tobytes()


def test_phase_convention_first_amplitude_real_positive():
    basis = delta_basis(6, 0.3, 2.2)
    for s in basis.states:
        lead = s.amp[np.argmax(np.abs(s.amp) > 1e-10)]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0


def fix_phase(vecs):
    """Each complex column times the unit phase that makes its first
    non-negligible amplitude real positive: the phase rule of the ladder,
    applied to the columns as they stand."""
    mags = np.abs(vecs)
    idx = np.argmax(mags > 1e-10 * mags.max(axis=0), axis=0)
    cols = np.arange(vecs.shape[1])
    return vecs * np.conj(vecs[idx, cols] / mags[idx, cols])


def reference_ladder(N, p, phi):
    """The normalized raising recursion from the orthogonal partner, rows m = 0..N."""
    if N == 0 or p in (0.0, 1.0):
        order = range(N + 1) if p == 1.0 else range(N, -1, -1)
        return np.eye(N + 1, dtype=np.complex128)[list(order)]
    raising = rotated_operators(N, p, phi).Jplus.entries
    amp = gbs_state(orthogonal_partner(GbsParams(N, p, phi))).amp
    ladder = [amp]
    for m in range(1, N + 1):
        amp = raising @ amp / math.sqrt(m * (N - m + 1))
        amp = amp / np.linalg.norm(amp)
        ladder.append(amp)
    return fix_phase(np.array(ladder).T).T


def reference_state(N, m, p, phi):
    """The closed form C(N,m)^(-1/2) (Jplus')^m / m! on the orthogonal partner."""
    if N == 0 or p in (0.0, 1.0):
        return reference_ladder(N, p, phi)[m]
    raising = rotated_operators(N, p, phi).Jplus.entries
    amp = gbs_state(orthogonal_partner(GbsParams(N, p, phi))).amp
    for k in range(1, m + 1):
        amp = raising @ amp / k
    amp = amp * math.exp(-0.5 * log_binomial(N, m))
    return fix_phase((amp / np.linalg.norm(amp))[:, None])[:, 0]


def oracle_ladder(N, p, phi, digits=40):
    """Eigenvectors of J3' from a 40-digit symmetric eigensolve, phase-fixed, rows m."""
    with mpmath.workdps(digits):
        p, phi = mpmath.mpf(p), mpmath.mpf(phi)
        t = mpmath.matrix(N + 1, N + 1)
        for n in range(N + 1):
            t[n, n] = (2 * p - 1) * (n - mpmath.mpf(N) / 2)
        for k in range(N):
            t[k + 1, k] = t[k, k + 1] = mpmath.sqrt(p * (1 - p) * (N - k) * (k + 1))
        evals, q = mpmath.eigsy(t)
        rows = []
        for j in sorted(range(N + 1), key=lambda j: evals[j]):
            v = [q[n, j] * mpmath.expj(n * phi) for n in range(N + 1)]
            mags = [abs(x) for x in v]
            lead = next(x for x, a in zip(v, mags) if a > 1e-10 * max(mags))
            rows.append([complex(x * mpmath.conj(lead) / abs(lead)) for x in v])
    return np.array(rows)


def _cases(seed, count, n_max=24):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(1, n_max + 1)), float(rng.random()), float(rng.uniform(-10, 10)))
        for _ in range(count)
    ]


def _align(ref, got):
    """ref times the unit phase that matches its largest amplitude to got's."""
    j = np.argmax(np.abs(ref))
    ratio = got[j] / ref[j]
    return ref * ratio / abs(ratio)


@pytest.mark.parametrize("N, p, phi", _cases(61, 40))
def test_basis_matches_the_recursion_reference(N, p, phi):
    got = np.array([s.amp for s in delta_basis(N, p, phi).states])
    for ref_row, row in zip(reference_ladder(N, p, phi), got):
        # the reference fixes its phase on an amplitude that can be 1e-10 of
        # the largest, carrying a phase error of eps over that amplitude
        assert np.abs(_align(ref_row, row) - row).max() <= 1e-12


@pytest.mark.parametrize("N, p, phi", _cases(62, 40))
def test_state_matches_the_closed_form_reference(N, p, phi):
    for m in range(N + 1):
        got = delta_state(N, m, p, phi).amp
        assert np.abs(_align(reference_state(N, m, p, phi), got) - got).max() <= 1e-12


@pytest.mark.parametrize(
    "N, p, phi",
    [(1, 0.3, 0.4), (5, 0.62, -2.0), (12, 0.37, 1.1), (24, 0.9353742926722213, -2.697320038166886)],
)
def test_phases_match_a_high_precision_eigensolve(N, p, phi):
    # at the last case the recursion reference is off by 1.6e-10 in phase
    oracle = oracle_ladder(N, p, phi)
    got = np.array([s.amp for s in delta_basis(N, p, phi).states])
    assert np.abs(got - oracle).max() <= 1e-13
    singles = np.array([delta_state(N, m, p, phi).amp for m in range(N + 1)])
    assert np.abs(singles - oracle).max() <= 1e-13


@pytest.mark.parametrize(
    "N, p", [(0, 0.42), (0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0), (4, 0.0), (4, 1.0), (24, 0.0), (24, 1.0)]
)
def test_degenerate_ladders_are_bit_equal_to_the_references(N, p):
    got = np.array([s.amp for s in delta_basis(N, p, 0.8).states])
    assert got.tobytes() == reference_ladder(N, p, 0.8).tobytes()
    for m in range(N + 1):
        assert delta_state(N, m, p, 0.8).amp.tobytes() == reference_state(N, m, p, 0.8).tobytes()


@pytest.mark.parametrize(
    "N, p, message",
    [(-1, 0.5, "non-negative integer"), (2.5, 0.5, "non-negative integer"),
     (3, 1.5, r"\[0, 1\]"), (3, -0.1, r"\[0, 1\]"), (3, float("nan"), r"\[0, 1\]")],
)
def test_bad_photon_number_or_probability_is_rejected(N, p, message):
    with pytest.raises(ValueError, match=message):
        delta_basis(N, p, 0.3)
    with pytest.raises(ValueError, match=message):
        delta_state(N, 0, p, 0.3)


def test_phi_is_kept_as_given():
    assert delta_basis(2, 0.3, 7.5).phi == 7.5
