"""Tests for generalized binomial states, overlaps and parameter maps."""

import math

import numpy as np
import pytest

from gbstates.gbs import (
    BlochAngles,
    GbsParams,
    angles_to_params,
    binomial_amplitudes,
    circular_distance,
    normalize_angle,
    coherent_state_truncated,
    gbs_overlap,
    gbs_state,
    orthogonal_partner,
    params_to_angles,
)
from gbstates.hilbert import basis_state, inner

TWO_PI = 2 * math.pi


def random_params(rng, n_max=50):
    return GbsParams(int(rng.integers(1, n_max + 1)), rng.random(), rng.random() * TWO_PI)


class TestGbsState:
    def test_vacuum_limit(self):
        state = gbs_state(GbsParams(5, 0.0, 1.3))
        np.testing.assert_array_equal(state.amp, basis_state(6, 0).amp)

    def test_number_state_limit(self):
        state = gbs_state(GbsParams(5, 1.0, 0.0))
        np.testing.assert_array_equal(state.amp, basis_state(6, 5).amp)

    def test_two_photon_even_split(self):
        state = gbs_state(GbsParams(2, 0.5, 0.0))
        np.testing.assert_allclose(
            state.amp, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-15
        )

    def test_normalized(self):
        assert gbs_state(GbsParams(137, 0.37, 2.2)).is_normalized()

    def test_embedding_dimension(self):
        state = gbs_state(GbsParams(2, 0.5, 0.0), dim=7)
        assert state.dim == 7
        assert np.all(state.amp[3:] == 0)

    def test_dim_too_small(self):
        with pytest.raises(ValueError, match="dim"):
            gbs_state(GbsParams(4, 0.5, 0.0), dim=4)

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="probability"):
            GbsParams(3, 1.2, 0.0)

    def test_phase_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = random_params(rng)
            base = gbs_state(GbsParams(params.N, params.p, 0.0)).amp
            shifted = base * np.exp(1j * params.phi * np.arange(params.N + 1))
            np.testing.assert_allclose(gbs_state(params).amp, shifted, atol=1e-12)

    def test_large_n_stability(self):
        state = gbs_state(GbsParams(300, 0.43, 1.0))
        assert state.is_normalized()
        assert np.all(np.isfinite(state.amp))


class TestOverlap:
    def test_self_overlap_is_one(self):
        params = GbsParams(9, 0.31, 0.7)
        assert gbs_overlap(params, params) == pytest.approx(1.0, abs=1e-13)

    def test_partner_overlap_vanishes(self):
        params = GbsParams(6, 0.27, 2.9)
        assert abs(gbs_overlap(params, orthogonal_partner(params))) <= 1e-12

    def test_single_photon_quarter_turn(self):
        # two-term sum by hand: 1/2 + (1/2) e^(i pi/2)
        a = GbsParams(1, 0.5, 0.0)
        b = GbsParams(1, 0.5, math.pi / 2)
        assert gbs_overlap(a, b) == pytest.approx(0.5 + 0.5j, abs=1e-15)

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            gbs_overlap(GbsParams(2, 0.5), GbsParams(3, 0.5))

    def test_closed_form_matches_direct_inner_product(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(200):
            a = random_params(rng)
            b = GbsParams(a.N, rng.random(), rng.random() * TWO_PI)
            closed = gbs_overlap(a, b)
            direct = inner(gbs_state(a), gbs_state(b))
            worst = max(worst, abs(closed - direct))
        assert worst <= 1e-12

    def test_edge_probability_overlaps(self):
        # <vacuum | number> through the closed form at p in {0, 1}
        assert gbs_overlap(GbsParams(2, 0.0, 0.0), GbsParams(2, 1.0, math.pi)) == 0
        assert gbs_overlap(GbsParams(2, 0.0, 0.3), GbsParams(2, 0.0, 2.2)) == 1

    def test_partner_is_unique_zero_on_grid(self):
        # scan (p', phi') at 1e-2 resolution: the overlap modulus only
        # vanishes inside a 0.05 ball around the antipodal partner
        a = GbsParams(4, 0.37, 1.1)
        partner = orthogonal_partner(a)
        p_grid = np.linspace(0.0, 1.0, 101)
        f_grid = np.arange(0.0, TWO_PI, 0.01)
        pp, ff = np.meshgrid(p_grid, f_grid, indexing="ij")
        total = np.zeros_like(pp, dtype=complex)
        for n in range(a.N + 1):
            mod = (
                math.comb(a.N, n)
                * (a.p * pp) ** (n / 2)
                * ((1 - a.p) * (1 - pp)) ** ((a.N - n) / 2)
            )
            total += mod * np.exp(1j * n * (ff - a.phi))
        wrapped = np.mod(ff - partner.phi, TWO_PI)
        dist = np.maximum(np.abs(pp - partner.p), np.minimum(wrapped, TWO_PI - wrapped))
        assert np.abs(total[dist > 0.05]).min() > 1e-8


class TestPartner:
    def test_partner_parameters(self):
        partner = orthogonal_partner(GbsParams(3, 0.3, 0.2))
        assert partner.N == 3
        assert partner.p == pytest.approx(0.7)
        assert partner.phi == pytest.approx(0.2 + math.pi)

    def test_involution(self):
        params = GbsParams(8, 0.81, 5.1)
        back = orthogonal_partner(orthogonal_partner(params))
        assert back.p == pytest.approx(params.p, abs=1e-15)
        assert circular_distance(back.phi, params.phi) <= 1e-12

    def test_no_partner_at_zero_photons(self):
        with pytest.raises(ValueError, match="no orthogonal partner"):
            orthogonal_partner(GbsParams(0, 0.3, 0.2))

    def test_vacuum_partner_is_number_state(self):
        partner = orthogonal_partner(GbsParams(2, 0.0, 0.0))
        assert (partner.p, partner.phi) == (1.0, pytest.approx(math.pi))
        assert abs(gbs_overlap(GbsParams(2, 0.0, 0.0), partner)) == 0


class TestAngleMaps:
    def test_number_state_is_north_pole(self):
        angles = params_to_angles(GbsParams(4, 1.0, 0.0))
        assert angles.theta == 0.0
        assert angles.varphi == 0.0

    def test_vacuum_is_south_pole(self):
        assert params_to_angles(GbsParams(4, 0.0, 1.0)).theta == pytest.approx(math.pi)

    def test_quarter_probability_map(self):
        angles = params_to_angles(GbsParams(4, 0.5, math.pi / 2))
        assert angles.theta == pytest.approx(math.pi / 2)
        assert angles.varphi == pytest.approx(3 * math.pi / 2)

    def test_maps_are_mutually_inverse(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            params = random_params(rng)
            back = angles_to_params(params_to_angles(params), params.N)
            assert back.p == pytest.approx(params.p, abs=1e-14)
            assert circular_distance(back.phi, params.phi) <= 1e-12
            angles = BlochAngles(np.arccos(rng.uniform(-1, 1)), rng.random() * TWO_PI)
            there = params_to_angles(angles_to_params(angles, 5))
            assert there.theta == pytest.approx(angles.theta, abs=1e-12)
            assert circular_distance(there.varphi, angles.varphi) <= 1e-12


class TestNormalizeAngle:
    def test_wraps_into_canonical_interval(self):
        assert normalize_angle(-math.pi / 2) == pytest.approx(1.5 * math.pi)
        assert normalize_angle(5 * math.pi) == pytest.approx(math.pi)

    @pytest.mark.parametrize("value", [-1e-20, -1e-17, -5e-324])
    def test_tiny_negative_angles_reduce_to_zero_not_two_pi(self, value):
        # np.mod(value, 2 pi) rounds to 2 pi, outside [0, 2 pi)
        angle = normalize_angle(value)
        assert angle == 0.0 and not math.copysign(1.0, angle) < 0
        params = GbsParams(1000, 0.3, value)
        assert params.phi == 0.0
        zero = gbs_state(GbsParams(1000, 0.3, 0.0)).amp
        assert gbs_state(params).amp.tobytes() == zero.tobytes()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            normalize_angle(value)
        with pytest.raises(ValueError, match="finite"):
            GbsParams(3, 0.5, value)
        with pytest.raises(ValueError, match="finite"):
            BlochAngles(1.0, value)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        state = coherent_state_truncated(0.0, 25)
        np.testing.assert_array_equal(state.amp, basis_state(25, 0).amp)

    def test_normalized_after_truncation(self):
        assert coherent_state_truncated(1.5 + 0.5j, 64).is_normalized()

    def test_poisson_moduli(self):
        state = coherent_state_truncated(1.0, 40)
        expected = np.exp(-0.5) / np.sqrt([math.factorial(n) for n in range(5)])
        np.testing.assert_allclose(state.amp[:5].real, expected, rtol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="too small"):
            coherent_state_truncated(2.0, 10)

    @pytest.mark.parametrize(
        "alpha", [complex("nan"), math.inf, complex(0.0, -math.inf), complex(1.0, math.nan)]
    )
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_state_truncated(alpha, 40)


def test_binomial_amplitudes_normalized_up_to_n300():
    for n in (1, 10, 300):
        w = binomial_amplitudes(n, 0.37)
        assert np.sum(w**2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [math.nan, 1.5, -0.25, math.inf])
def test_binomial_amplitudes_reject_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match=f"probability must lie in \\[0, 1\\], got {p}"):
        binomial_amplitudes(10, p)


@pytest.mark.parametrize("N", [-1, 2.5])
def test_binomial_amplitudes_reject_bad_photon_number(N):
    with pytest.raises(ValueError, match=f"non-negative integer, got {N}"):
        binomial_amplitudes(N, 0.3)
