"""Tests for the orthonormal ladder basis between two orthogonal states."""

import math

import numpy as np
import pytest

from gbstates.delta_basis import delta_basis, delta_state
from gbstates.gbs import GbsParams, gbs_state, orthogonal_partner
from gbstates.hilbert import basis_state, inner
from gbstates.hp_algebra import RotationSpec, rotated_operators, rotation_operator

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


def test_phase_convention_first_amplitude_real_positive():
    basis = delta_basis(6, 0.3, 2.2)
    for s in basis.states:
        lead = s.amp[np.argmax(np.abs(s.amp) > 1e-10)]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0
