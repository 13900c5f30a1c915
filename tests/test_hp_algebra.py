"""Tests for the pseudo-spin algebra, rotations and the link operator."""

import cmath
import math

import numpy as np
import pytest

from gbstates.gbs import BlochAngles, GbsParams, gbs_state, orthogonal_partner
from gbstates.hilbert import adjoint, apply, basis_state, commutator, inner
from gbstates.hp_algebra import (
    RotationSpec,
    composition_angles,
    composition_residual,
    hp_operators,
    link_operator,
    rotated_operators,
    rotation_operator,
)
from gbstates.oracles import rotation_expm

TWO_PI = 2 * math.pi


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 30])
class TestHpOperators:
    def test_ladder_endpoints_annihilate(self, n):
        ops = hp_operators(n)
        top = basis_state(n + 1, n)
        bottom = basis_state(n + 1, 0)
        assert np.all((ops.Jplus @ top).amp == 0)
        assert np.all((ops.Jminus @ bottom).amp == 0)

    def test_top_eigenvalue(self, n):
        ops = hp_operators(n)
        top = basis_state(n + 1, n)
        np.testing.assert_allclose((ops.J3 @ top).amp, (n / 2) * top.amp)

    def test_adjoint_pairing(self, n):
        ops = hp_operators(n)
        np.testing.assert_array_equal(ops.Jminus.entries, adjoint(ops.Jplus).entries)

    def test_commutation_rules(self, n):
        ops = hp_operators(n)
        assert np.abs(
            commutator(ops.Jplus, ops.Jminus).entries - 2 * ops.J3.entries
        ).max() <= 1e-12
        assert np.abs(
            commutator(ops.J3, ops.Jplus).entries - ops.Jplus.entries
        ).max() <= 1e-12
        assert np.abs(
            commutator(ops.J3, ops.Jminus).entries + ops.Jminus.entries
        ).max() <= 1e-12

    def test_casimir_commutes_and_is_scalar(self, n):
        ops = hp_operators(n)
        for other in (ops.J3, ops.Jplus, ops.Jminus):
            assert np.abs(commutator(ops.Jsq, other).entries).max() <= 1e-12
        j = n / 2
        np.testing.assert_allclose(
            ops.Jsq.entries, j * (j + 1) * np.eye(n + 1), atol=1e-12
        )


def test_single_photon_raising_matrix():
    ops = hp_operators(1)
    np.testing.assert_array_equal(ops.Jplus.entries, [[0, 0], [1, 0]])


def test_rotation_spec_consistency():
    angles = BlochAngles(1.234, 4.2)
    spec = RotationSpec.from_angles(angles)
    assert abs(spec.eta - (angles.theta / 2) * cmath.exp(-1j * angles.varphi)) <= 1e-14
    assert abs(spec.tau - math.tan(angles.theta / 2) * cmath.exp(-1j * angles.varphi)) <= 1e-14


class TestRotationOperator:
    def test_zero_angle_is_identity(self):
        r = rotation_operator(4, RotationSpec.from_angles(BlochAngles(0.0, 2.0)))
        np.testing.assert_allclose(r.entries, np.eye(5), atol=1e-15)

    def test_rotates_number_state_onto_gbs(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            params = GbsParams(int(rng.integers(1, 31)), rng.random(), rng.random() * TWO_PI)
            r = rotation_operator(params.N, RotationSpec.from_gbs(params))
            rotated = apply(r, basis_state(params.N + 1, params.N))
            fidelity = abs(inner(gbs_state(params), rotated)) ** 2
            assert abs(1 - fidelity) <= 1e-10

    def test_two_level_half_turn(self):
        # 2x2 exponential in closed form: equal splitting at theta = pi/2
        r = rotation_operator(1, RotationSpec.from_angles(BlochAngles(math.pi / 2, 0.0)))
        closed = np.array(
            [
                [math.cos(math.pi / 4), math.sin(math.pi / 4)],
                [-math.sin(math.pi / 4), math.cos(math.pi / 4)],
            ]
        )
        np.testing.assert_allclose(r.entries, closed, atol=1e-14)
        assert abs(r.entries[0, 1]) ** 2 == pytest.approx(0.5)

    def test_unitary_with_unimodular_determinant(self):
        r = rotation_operator(6, RotationSpec.from_angles(BlochAngles(2.2, 0.9)))
        np.testing.assert_allclose((r @ adjoint(r)).entries, np.eye(7), atol=1e-12)
        assert abs(np.linalg.det(r.entries)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 30, 64, 200, 512])
def test_rotation_matches_expm_oracle(n):
    rng = np.random.default_rng(100 + n)
    for theta in (0.0, 1e-9, math.pi / 2, math.pi - 1e-9, math.pi):
        spec = RotationSpec.from_angles(BlochAngles(theta, rng.random() * TWO_PI))
        r = rotation_operator(n, spec).entries
        assert np.abs(r - rotation_expm(hp_operators(n), spec.eta).entries).max() <= 1e-12


def test_large_rotation_is_unitary_with_gbs_top_column():
    n, params = 1000, GbsParams(1000, 0.37, 1.1)
    spec = RotationSpec.from_gbs(params)
    r = rotation_operator(n, spec).entries
    assert np.abs(r.conj().T @ r - np.eye(n + 1)).max() <= 1e-12
    # column N is |N, p, phi> times the global phase e^(i N varphi)
    top = r[:, n] * cmath.exp(-1j * n * spec.angles.varphi)
    assert np.abs(top - gbs_state(params).amp).max() <= 1e-12


class TestRotatedOperators:
    def test_p_one_leaves_operators_unrotated(self):
        ops = hp_operators(3)
        rot = rotated_operators(3, 1.0, 0.8)
        np.testing.assert_allclose(rot.J3.entries, ops.J3.entries, atol=1e-15)
        np.testing.assert_allclose(rot.Jplus.entries, ops.Jplus.entries, atol=1e-15)

    def test_gbs_is_top_eigenvector(self):
        params = GbsParams(7, 0.42, 2.6)
        rot = rotated_operators(params.N, params.p, params.phi)
        state = gbs_state(params)
        np.testing.assert_allclose(
            (rot.J3 @ state).amp, (params.N / 2) * state.amp, atol=1e-10
        )
        assert np.abs((rot.Jplus @ state).amp).max() <= 1e-10

    def test_partner_is_bottom_eigenvector(self):
        params = GbsParams(7, 0.42, 2.6)
        rot = rotated_operators(params.N, params.p, params.phi)
        partner = gbs_state(orthogonal_partner(params))
        np.testing.assert_allclose(
            (rot.J3 @ partner).amp, -(params.N / 2) * partner.amp, atol=1e-10
        )
        assert np.abs((rot.Jminus @ partner).amp).max() <= 1e-10

    def test_literal_form_equals_conjugation(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 31))
            p, phi = rng.random(), rng.random() * TWO_PI
            rot = rotated_operators(n, p, phi)
            r = rotation_operator(n, RotationSpec.from_gbs(GbsParams(n, p, phi)))
            ops = hp_operators(n)
            worst = max(
                worst,
                np.abs((rot.J3 - r @ ops.J3 @ adjoint(r)).entries).max(),
                np.abs((rot.Jplus - r @ ops.Jplus @ adjoint(r)).entries).max(),
            )
        assert worst <= 1e-10

    def test_algebra_survives_rotation(self):
        rot = rotated_operators(9, 0.2, 1.2)
        assert np.abs(
            commutator(rot.Jplus, rot.Jminus).entries - 2 * rot.J3.entries
        ).max() <= 1e-10
        assert np.abs(
            commutator(rot.J3, rot.Jplus).entries - rot.Jplus.entries
        ).max() <= 1e-10
        assert np.abs(
            commutator(rot.J3, rot.Jminus).entries + rot.Jminus.entries
        ).max() <= 1e-10
        # the Casimir commutes with the rotated raising operator
        assert np.abs(commutator(rot.Jsq, rot.Jplus).entries).max() <= 1e-10


class TestLinkOperator:
    def test_identical_parameters_give_identity(self):
        a = GbsParams(5, 0.4, 1.0)
        t = link_operator(5, a, a)
        np.testing.assert_allclose(t.entries, np.eye(6), atol=1e-12)

    def test_source_at_north_pole_reduces_to_rotation(self):
        a = GbsParams(5, 1.0, 0.0)  # theta = 0, R(a) = identity
        b = GbsParams(5, 0.3, 2.0)
        t = link_operator(5, a, b)
        rb = rotation_operator(5, RotationSpec.from_gbs(b))
        np.testing.assert_allclose(t.entries, rb.entries, atol=1e-12)

    def test_carries_one_state_onto_other(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 21))
            a = GbsParams(n, rng.random(), rng.random() * TWO_PI)
            b = GbsParams(n, rng.random(), rng.random() * TWO_PI)
            t = link_operator(n, a, b)
            fid = abs(inner(gbs_state(b), apply(t, gbs_state(a)))) ** 2
            assert abs(1 - fid) <= 1e-10

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError, match="share N"):
            link_operator(4, GbsParams(4, 0.5), GbsParams(5, 0.5))


class TestCompositionAngles:
    def test_coincident_directions(self):
        a = BlochAngles(0.7, 1.9)
        theta, _, phase = composition_angles(a, a)
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert phase == pytest.approx(1.0)

    def test_collinear_axes(self):
        a = BlochAngles(0.5, 1.1)
        b = BlochAngles(1.3, 1.1)
        theta, phi, phase = composition_angles(a, b)
        assert theta == pytest.approx(0.8)
        assert phi == pytest.approx(1.1)
        assert phase == pytest.approx(1.0)
        # same axis: the composition law is exact here
        assert composition_residual(6, a, b) <= 1e-12

    def test_small_angle_quarter_turn(self):
        theta, _, _ = composition_angles(BlochAngles(0.1, 1.5), BlochAngles(0.1, 1.5 - math.pi / 2))
        assert theta == pytest.approx(0.1 * math.sqrt(2))

    def test_residual_reports_inexactness(self):
        # generic directions: the law is approximate, the validator says how much
        res = composition_residual(4, BlochAngles(1.2, 0.3), BlochAngles(2.1, 2.8))
        assert res > 1e-3
