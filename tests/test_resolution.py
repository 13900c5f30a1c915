"""Tests for the over-complete basis: identity resolution and expansions."""

import math

import numpy as np
import pytest

from gbstates.gbs import GbsParams, gbs_state
from gbstates.hilbert import StateVector, basis_state
from gbstates.resolution import (
    SphereQuadrature,
    expansion_amplitude,
    expansion_amplitude_series,
    identity_resolution,
    reconstruct,
)

TWO_PI = 2 * math.pi


def random_support_state(rng, n):
    v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return StateVector(v / np.linalg.norm(v))


class TestSphereQuadrature:
    def test_weights_integrate_du(self):
        quad = SphereQuadrature.build(6, 5)
        assert quad.theta_nodes[:, 1].sum() == pytest.approx(2.0, abs=1e-12)

    def test_interior_nodes_avoid_poles(self):
        quad = SphereQuadrature.build(4, 5)
        assert np.all(quad.p_values > 0) and np.all(quad.p_values < 1)

    def test_phi_grid_uniform(self):
        quad = SphereQuadrature.build(3, 4)
        np.testing.assert_allclose(quad.phi_values, [0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 2"):
            SphereQuadrature(np.array([[0.3, 1.0]]), 4)
        # a polar node outside [0, pi] or not finite, a weight not finite
        for row, match in [
            ([7.0, 2.0], "polar"),
            ([-0.1, 2.0], "polar"),
            ([np.nan, 2.0], "polar"),
            ([np.inf, 2.0], "polar"),
            ([0.3, np.nan], "finite"),
            ([0.3, np.inf], "finite"),
        ]:
            with pytest.raises(ValueError, match=match):
                SphereQuadrature(np.array([row]), 4)

    def test_needs_phi_nodes(self):
        nodes = SphereQuadrature.build(3, 4).theta_nodes
        for count in (0, -1, True, np.bool_(True), 2.5, 4.0, "4", None):
            with pytest.raises(ValueError, match="azimuthal"):
                SphereQuadrature(nodes, count)
        assert SphereQuadrature(nodes, np.int64(4)).phi_count == 4


class TestIdentityResolution:
    def test_trivial_single_photon_family(self):
        res = identity_resolution(0, SphereQuadrature.build(1, 1))
        np.testing.assert_allclose(res.entries, [[1.0]], atol=1e-14)

    def test_threshold_grid_is_exact(self):
        # degree argument: 2 Gauss nodes integrate degree-3 polynomials,
        # 4 phase nodes resolve all |m - n| <= 3 harmonics
        res = identity_resolution(3, SphereQuadrature.build(2, 4))
        assert np.abs(res.entries - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("n", range(0, 21))
    def test_default_grid_exact_through_n20(self, n):
        res = identity_resolution(n, SphereQuadrature.default_for(n))
        assert np.abs(res.entries - np.eye(n + 1)).max() <= 1e-12

    def test_under_resolved_phase_grid_aliases(self):
        with pytest.warns(UserWarning, match="under-resolved"):
            res = identity_resolution(3, SphereQuadrature.build(4, 2))
        assert np.abs(res.entries - np.eye(4)).max() > 1e-3

    def test_under_resolved_theta_grid_warns(self):
        with pytest.warns(UserWarning, match="under-resolved"):
            identity_resolution(9, SphereQuadrature.build(2, 12))

    def test_errors_decay_as_grids_refine(self):
        # below the exactness threshold, refinement along either axis
        # drives the contamination monotonically to roundoff
        def err(k, m):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = identity_resolution(9, SphereQuadrature.build(k, m))
            return np.abs(res.entries - np.eye(10)).max()

        theta_errors = [err(k, 12) for k in (1, 2, 3, 4, 5)]
        assert theta_errors == sorted(theta_errors, reverse=True)
        assert theta_errors[-1] <= 1e-12
        phi_errors = [err(7, m) for m in (2, 4, 6, 8, 10)]
        assert phi_errors == sorted(phi_errors, reverse=True)
        assert phi_errors[-1] <= 1e-12


class TestExpansionAmplitude:
    def test_self_expansion_hits_prefactor(self):
        params = GbsParams(6, 0.4, 1.1)
        out = expansion_amplitude(gbs_state(params), params)
        assert out.A_value == pytest.approx(0.4 ** (-3), abs=1e-10)
        assert abs(out.tau) == pytest.approx(math.sqrt(0.6 / 0.4))

    def test_number_state_projection_at_p_one(self):
        # tau = 0 there: only the top monomial survives
        out = expansion_amplitude(basis_state(4, 0), GbsParams(3, 1.0, 0.5))
        assert out.tau == 0
        assert abs(out.A_value) <= 1e-15
        zero_n = expansion_amplitude(basis_state(1, 0), GbsParams(0, 1.0, 0.5))
        assert zero_n.A_value == pytest.approx(1.0)

    def test_single_photon_two_term_polynomial(self):
        out = expansion_amplitude(basis_state(2, 1), GbsParams(1, 0.5, 0.0))
        assert out.A_value == pytest.approx(1.0, abs=1e-12)

    def test_series_route_agrees_with_overlap_route(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(0, 21))
            params = GbsParams(n, rng.uniform(0.05, 1.0), rng.random() * TWO_PI)
            psi = random_support_state(rng, n)
            overlap_route = expansion_amplitude(psi, params).A_value
            series_route = expansion_amplitude_series(psi, params)
            assert abs(overlap_route - series_route) <= 1e-10 * max(1.0, abs(overlap_route))

    @pytest.mark.parametrize("route", [expansion_amplitude, expansion_amplitude_series])
    def test_out_of_double_range_rejected(self, route):
        # p^(-N/2) = 0.01^(-250) = 1e500
        with pytest.raises(ValueError, match=r"N=500, p=0\.01"):
            route(basis_state(501, 0), GbsParams(500, 0.01, 0.3))

    def test_in_range_growth_stays_finite(self):
        # 0.06^(-250) = 1.8e305 is still a double
        psi, params = basis_state(501, 0), GbsParams(500, 0.06, 0.3)
        assert math.isfinite(abs(expansion_amplitude(psi, params).A_value))
        assert math.isfinite(abs(expansion_amplitude_series(psi, params)))

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError, match="0 < p"):
            expansion_amplitude(basis_state(3, 0), GbsParams(2, 0.0, 0.0))


class TestReconstruct:
    def test_vacuum_round_trip(self):
        out = reconstruct(basis_state(4, 0), 3, SphereQuadrature.default_for(3))
        np.testing.assert_allclose(out.amp, basis_state(4, 0).amp, atol=1e-12)

    def test_random_states_round_trip(self):
        rng = np.random.default_rng(42)
        quad = SphereQuadrature.default_for(9)
        for _ in range(50):
            psi = random_support_state(rng, 9)
            out = reconstruct(psi, 9, quad)
            assert np.abs(out.amp - psi.amp).max() <= 1e-10

    def test_gbs_round_trip(self):
        params = GbsParams(7, 0.23, 2.8)
        quad = SphereQuadrature.default_for(7)
        psi = gbs_state(params)
        np.testing.assert_allclose(reconstruct(psi, 7, quad).amp, psi.amp, atol=1e-11)

    def test_linearity(self):
        rng = np.random.default_rng(43)
        quad = SphereQuadrature.default_for(6)
        u, w = random_support_state(rng, 6), random_support_state(rng, 6)
        au, bw = 0.7 - 0.2j, -0.4 + 1.1j
        combo = StateVector(au * u.amp + bw * w.amp)
        lhs = reconstruct(combo, 6, quad).amp
        rhs = au * reconstruct(u, 6, quad).amp + bw * reconstruct(w, 6, quad).amp
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_support_above_n_rejected(self):
        with pytest.raises(ValueError, match="support"):
            reconstruct(basis_state(8, 7), 4, SphereQuadrature.default_for(4))

    def test_embedded_state_keeps_dimension(self):
        psi = gbs_state(GbsParams(3, 0.5, 0.3), dim=10)
        out = reconstruct(psi, 3, SphereQuadrature.default_for(3))
        assert out.dim == 10
        np.testing.assert_allclose(out.amp, psi.amp, atol=1e-11)
