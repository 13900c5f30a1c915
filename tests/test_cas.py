"""Tests for coherent atomic states, Dicke ladders and the appendix identities."""

import math

import mpmath
import numpy as np
import pytest

from gbstates.cas import (
    CasParams,
    cas_expansion_check,
    cas_identity_resolution,
    cas_overlap_modulus_sq,
    cas_state,
    rotated_cas_operators,
    rotation_operator_spin,
    spin_j_operators,
)
from gbstates.gbs import BlochAngles, GbsParams, gbs_state, params_to_angles
from gbstates.hilbert import StateVector, adjoint, basis_state, commutator, inner
from gbstates.oracles import dicke_states_tensor, disentangled_rotation, tensor_atom_space
from gbstates.resolution import SphereQuadrature, reconstruct

TWO_PI = 2 * math.pi


def random_angles(rng):
    return BlochAngles(float(np.arccos(rng.uniform(-1, 1))), float(rng.random() * TWO_PI))


class TestSpinJOperators:
    def test_spin_half_is_half_pauli(self):
        ops = spin_j_operators(0.5)
        np.testing.assert_array_equal(ops.Jz.entries, np.diag([-0.5, 0.5]))
        np.testing.assert_array_equal(ops.Jplus.entries, [[0, 0], [1, 0]])

    def test_top_of_ladder_annihilated(self):
        ops = spin_j_operators(2.0)
        top = basis_state(5, 4)
        assert np.all((ops.Jplus @ top).amp == 0)

    def test_casimir_three_halves(self):
        ops = spin_j_operators(1.5)
        np.testing.assert_allclose(ops.Jsq.entries, 1.5 * 2.5 * np.eye(4), atol=1e-12)

    def test_commutation_rules(self):
        ops = spin_j_operators(2.5)
        assert np.abs(commutator(ops.Jplus, ops.Jminus).entries - 2 * ops.Jz.entries).max() <= 1e-12
        assert np.abs(commutator(ops.Jz, ops.Jplus).entries - ops.Jplus.entries).max() <= 1e-12

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError, match="half-integer"):
            spin_j_operators(0.3)

    @pytest.mark.parametrize("J", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_spin(self, J):
        with pytest.raises(ValueError, match=f"half-integer, got {J}"):
            spin_j_operators(J)
        with pytest.raises(ValueError, match=f"half-integer, got {J}"):
            CasParams(J, BlochAngles(1.0, 0.5))


class TestTensorSpace:
    def test_atom_cap(self):
        with pytest.raises(ValueError, match="N_atoms"):
            tensor_atom_space(13)

    def test_cache_returns_same_object(self):
        assert tensor_atom_space(3) is tensor_atom_space(3)

    def test_commutation_rules_in_product_space(self):
        space = tensor_atom_space(4)
        assert np.abs(
            commutator(space.Jplus, space.Jminus).entries - 2 * space.Jz.entries
        ).max() <= 1e-12
        assert np.abs(commutator(space.Jz, space.Jsq).entries).max() <= 1e-12

    def test_ground_and_top_product_states(self):
        dicke = dicke_states_tensor(3)
        np.testing.assert_array_equal(dicke[0].amp, basis_state(8, 0).amp)
        np.testing.assert_array_equal(dicke[3].amp, basis_state(8, 7).amp)

    def test_single_excitation_w_state(self):
        dicke = dicke_states_tensor(2)
        expected = np.zeros(4)
        expected[[1, 2]] = 1 / math.sqrt(2)  # (|ge> + |eg>)/sqrt(2)
        np.testing.assert_allclose(dicke[1].amp, expected, atol=1e-14)

    def test_dicke_ladder_orthonormal_and_symmetric(self):
        dicke = dicke_states_tensor(4)
        gram = np.array([[inner(a, b) for b in dicke] for a in dicke])
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)
        # permutation symmetry: equal weight on every bitstring of fixed weight
        for state in dicke:
            mags = np.abs(state.amp)
            for weight in range(5):
                idx = [i for i in range(16) if bin(i).count("1") == weight]
                assert np.ptp(mags[idx]) <= 1e-12


class TestCasState:
    def test_poles_are_dicke_endpoints(self):
        # the defining formula keeps a global phase e^(-i 2J varphi) at the
        # north pole, so compare populations, not raw amplitudes
        top = cas_state(CasParams(2.0, BlochAngles(0.0, 1.0)))
        assert abs(inner(top, basis_state(5, 4))) ** 2 == pytest.approx(1.0)
        bottom = cas_state(CasParams(2.0, BlochAngles(math.pi, 1.0)))
        np.testing.assert_allclose(bottom.amp, basis_state(5, 0).amp, atol=1e-15)

    def test_equals_rotated_top_dicke_state(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            two_j = int(rng.integers(1, 11))
            angles = random_angles(rng)
            state = cas_state(CasParams(two_j / 2, angles))
            rotated = rotation_operator_spin(two_j / 2, angles) @ basis_state(two_j + 1, two_j)
            assert abs(inner(state, rotated)) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_coefficients_match_gbs_amplitudes(self):
        # the parametric bijection: identical coefficient vectors, entry by entry
        rng = np.random.default_rng(52)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            params = GbsParams(n, rng.random(), rng.random() * TWO_PI)
            state = cas_state(CasParams(n / 2, params_to_angles(params)))
            assert np.abs(state.amp - gbs_state(params).amp).max() <= 1e-12


class TestDisentangling:
    def test_zero_angle_is_identity(self):
        out = disentangled_rotation(1.5, BlochAngles(0.0, 0.4))
        np.testing.assert_allclose(out.entries, np.eye(4), atol=1e-15)

    def test_two_level_quarter_turn(self):
        angles = BlochAngles(math.pi / 2, 0.0)
        out = disentangled_rotation(0.5, angles)
        np.testing.assert_allclose(
            out.entries, rotation_operator_spin(0.5, angles).entries, atol=1e-14
        )

    def test_matches_direct_exponential(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            two_j = int(rng.integers(1, 11))
            angles = BlochAngles(rng.random() * 3.0, rng.random() * TWO_PI)
            dist = np.linalg.norm(
                disentangled_rotation(two_j / 2, angles).entries
                - rotation_operator_spin(two_j / 2, angles).entries
            )
            assert dist <= 1e-9

    def test_south_pole_rejected(self):
        with pytest.raises(ValueError, match="theta = pi"):
            disentangled_rotation(1.0, BlochAngles(math.pi, 0.0))


class TestRotatedCasOperators:
    def test_zero_angle_unrotated_up_to_phase(self):
        raw = spin_j_operators(1.5)
        rot = rotated_cas_operators(1.5, BlochAngles(0.0, 0.9))
        np.testing.assert_allclose(rot.Jz.entries, raw.Jz.entries, atol=1e-15)
        np.testing.assert_allclose(np.abs(rot.Jplus.entries), np.abs(raw.Jplus.entries), atol=1e-15)

    def test_eigen_relations(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            two_j = int(rng.integers(1, 11))
            j = two_j / 2
            angles = random_angles(rng)
            rot = rotated_cas_operators(j, angles)
            state = cas_state(CasParams(j, angles))
            assert np.abs((rot.Jz @ state).amp - j * state.amp).max() <= 1e-10
            assert np.abs((rot.Jplus @ state).amp).max() <= 1e-10

    def test_equals_conjugation(self):
        angles = BlochAngles(1.9, 3.3)
        j = 2.5
        rot = rotated_cas_operators(j, angles)
        raw = spin_j_operators(j)
        r = rotation_operator_spin(j, angles)
        assert np.abs((rot.Jz - r @ raw.Jz @ adjoint(r)).entries).max() <= 1e-10
        assert np.abs((rot.Jplus - r @ raw.Jplus @ adjoint(r)).entries).max() <= 1e-10


class TestOverlapLaw:
    def test_self_overlap(self):
        a = BlochAngles(0.8, 1.7)
        assert cas_overlap_modulus_sq(3.0, a, a) == pytest.approx(1.0)

    def test_antipodal_pair_orthogonal(self):
        a = BlochAngles(0.8, 1.7)
        anti = BlochAngles(math.pi - 0.8, 1.7 + math.pi)
        assert cas_overlap_modulus_sq(3.0, a, anti) <= 1e-30
        direct = inner(cas_state(CasParams(3.0, a)), cas_state(CasParams(3.0, anti)))
        assert abs(direct) <= 1e-12

    def test_two_level_right_angle(self):
        a = BlochAngles(0.0, 0.0)
        b = BlochAngles(math.pi / 2, 0.0)
        assert cas_overlap_modulus_sq(0.5, a, b) == pytest.approx(0.5)

    @pytest.mark.parametrize("two_j", (10**5, 10**6))
    def test_law_against_mpmath_for_nearby_pairs_at_large_j(self, two_j):
        # (1 + cos Theta)/2 raised to the power 2J was off by 5.3e-12 and 6.6e-11 here
        rng = np.random.default_rng(two_j)
        step = 1.0 / math.sqrt(two_j)
        worst = 0.0
        for _ in range(20):
            theta, varphi = rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, TWO_PI)
            a = BlochAngles(theta, varphi)
            shift = step * rng.normal(), step * rng.normal() / math.sin(theta)
            b = BlochAngles(theta + shift[0], varphi + shift[1])
            with mpmath.workdps(50):
                ta, va, tb, vb = (mpmath.mpf(x) for x in (a.theta, a.varphi, b.theta, b.varphi))
                cos_big = mpmath.cos(ta) * mpmath.cos(tb)
                cos_big += mpmath.sin(ta) * mpmath.sin(tb) * mpmath.cos(va - vb)
                want = ((1 + cos_big) / 2) ** two_j
            worst = max(worst, abs(cas_overlap_modulus_sq(two_j / 2, a, b) - float(want)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("two_j", (1, 2, 7, 10**6))
    def test_law_at_the_same_point_and_at_antipodes(self, two_j):
        rng = np.random.default_rng(two_j)
        for _ in range(20):
            a = random_angles(rng)
            anti = BlochAngles(math.pi - a.theta, a.varphi + math.pi)
            assert cas_overlap_modulus_sq(two_j / 2, a, a) == 1.0
            tiny = (4.0 * np.finfo(float).eps) ** two_j
            assert cas_overlap_modulus_sq(two_j / 2, a, anti) <= tiny

    def test_law_is_one_at_zero_spin(self):
        rng = np.random.default_rng(0)
        a = random_angles(rng)
        for b in (a, random_angles(rng), BlochAngles(math.pi - a.theta, a.varphi + math.pi)):
            assert cas_overlap_modulus_sq(0, a, b) == 1.0

    def test_law_matches_direct_inner_products(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(200):
            two_j = int(rng.integers(1, 13))
            a, b = random_angles(rng), random_angles(rng)
            law = cas_overlap_modulus_sq(two_j / 2, a, b)
            direct = abs(inner(cas_state(CasParams(two_j / 2, a)), cas_state(CasParams(two_j / 2, b)))) ** 2
            worst = max(worst, abs(law - direct))
        assert worst <= 1e-10


class TestCasBasis:
    def test_top_dicke_round_trip(self):
        quad = SphereQuadrature.default_for(5)
        top = basis_state(6, 5)
        out = cas_expansion_check(2.5, top, quad)
        np.testing.assert_allclose(out.amp, top.amp, atol=1e-12)

    def test_random_round_trip_and_identity(self):
        rng = np.random.default_rng(56)
        quad = SphereQuadrature.default_for(7)
        ident = cas_identity_resolution(3.5, quad)
        assert np.abs(ident.entries - np.eye(8)).max() <= 1e-12
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = StateVector(v / np.linalg.norm(v))
        out = cas_expansion_check(3.5, psi, quad)
        assert np.abs(out.amp - psi.amp).max() <= 1e-10

    def test_agrees_with_field_side_reconstruction(self):
        rng = np.random.default_rng(57)
        quad = SphereQuadrature.default_for(6)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        psi = StateVector(v / np.linalg.norm(v))
        atom_side = cas_expansion_check(3.0, psi, quad)
        field_side = reconstruct(psi, 6, quad)
        assert np.abs(atom_side.amp - field_side.amp).max() <= 1e-10


class TestTensorOracle:
    def test_rotated_product_state_projects_onto_cas(self):
        rng = np.random.default_rng(58)
        for n_atoms in range(1, 9):
            space = tensor_atom_space(n_atoms)
            dicke = dicke_states_tensor(n_atoms)
            angles = random_angles(rng)
            xi = (angles.theta / 2) * np.exp(-1j * angles.varphi)
            from gbstates.oracles import expm

            r = expm((-xi) * space.Jplus + np.conj(xi) * space.Jminus)
            rotated = (r @ dicke[-1]).amp
            coeffs = np.array([np.vdot(d.amp, rotated) for d in dicke])
            block_col = rotation_operator_spin(n_atoms / 2, angles).entries[:, -1]
            assert np.abs(coeffs - block_col).max() <= 1e-12
            fid = abs(np.vdot(cas_state(CasParams(n_atoms / 2, angles)).amp, coeffs)) ** 2
            assert abs(1 - fid) <= 1e-12

    def test_dual_generation_from_ground_state(self):
        # rotating |J,-J> by pi - theta about the antiparallel axis lands on
        # the same coherent state up to a global phase
        rng = np.random.default_rng(59)
        for _ in range(10):
            two_j = int(rng.integers(1, 9))
            angles = random_angles(rng)
            anti = BlochAngles(math.pi - angles.theta, angles.varphi + math.pi)
            dual = rotation_operator_spin(two_j / 2, anti) @ basis_state(two_j + 1, 0)
            fid = abs(inner(cas_state(CasParams(two_j / 2, angles)), dual)) ** 2
            assert abs(1 - fid) <= 1e-10
