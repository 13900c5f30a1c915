"""Tests for quadrature operators, moments and the closed-form indexes."""

import math
import tracemalloc

import numpy as np
import pytest

from gbstates.gbs import GbsParams, gbs_state
from gbstates.hilbert import StateVector, basis_state, commutator
from gbstates.squeezing import (
    closed_form_indexes,
    direct_stats,
    squeeze_scan,
    squeezing_terms,
)
from gbstates.oracles import quadrature_ops

TWO_PI = 2 * math.pi


class TestQuadratureOps:
    def test_x_quadrature_ladder_elements(self):
        ax, _ = quadrature_ops(5)
        assert np.abs(ax.entries - ax.entries.conj().T).max() == 0
        assert np.abs(ax.entries.imag).max() == 0
        np.testing.assert_allclose(np.diag(ax.entries, 1), np.sqrt([1, 2, 3, 4]))

    def test_vacuum_means_vanish(self):
        ax, ap = quadrature_ops(4)
        vac = basis_state(4, 0)
        assert np.vdot(vac.amp, ax.entries @ vac.amp) == 0
        assert np.vdot(vac.amp, ap.entries @ vac.amp) == 0

    def test_canonical_commutator_on_interior(self):
        ax, ap = quadrature_ops(7)
        comm = commutator(ax, ap).entries
        assert comm[0, 0] == pytest.approx(2j)
        interior = comm[:-1, :-1]
        np.testing.assert_allclose(interior, 2j * np.eye(6), atol=1e-14)

    def test_minimum_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            quadrature_ops(1)


class TestDirectStats:
    def test_vacuum_is_minimum_uncertainty(self):
        stats = direct_stats(basis_state(5, 0))
        assert stats.var_X == pytest.approx(1.0, abs=1e-14)
        assert stats.var_P == pytest.approx(1.0, abs=1e-14)
        assert stats.S_X == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_number_state_indexes(self, n):
        # <aX^2> = 2n + 1 on |n>, so S_X = S_P = -2n
        stats = direct_stats(basis_state(n + 3, n))
        assert stats.S_X == pytest.approx(-2 * n, abs=1e-12)
        assert stats.S_P == pytest.approx(-2 * n, abs=1e-12)

    def test_cross_check_against_closed_form(self):
        stats = direct_stats(gbs_state(GbsParams(2, 0.5, 0.0), dim=5))
        s_x, s_p = closed_form_indexes(2, 0.5, 0.0)
        assert stats.S_X == pytest.approx(s_x, abs=1e-12)
        assert stats.S_P == pytest.approx(s_p, abs=1e-12)

    def test_uncertainty_floor(self):
        stats = direct_stats(gbs_state(GbsParams(8, 0.3, 0.9), dim=11))
        assert stats.var_X * stats.var_P >= 1 - 1e-9

    @pytest.mark.parametrize("dim", [3, 4, 10, 101, 500, 1000])
    def test_matches_dense_quadrature_ops(self, dim):
        # the dense oracle: Var = <K^2> - <K>^2 from the (dim x dim) matrices, with
        # N = dim - 3 the highest populated level
        rng = np.random.default_rng(dim)
        ax, ap = quadrature_ops(dim)
        for k in range(6):
            if k % 2:
                v = np.zeros(dim, dtype=np.complex128)
                v[: dim - 2] = rng.normal(size=dim - 2) + 1j * rng.normal(size=dim - 2)
                psi = StateVector(v / np.linalg.norm(v))
            else:
                psi = gbs_state(GbsParams(dim - 3, rng.random(), rng.random() * TWO_PI), dim=dim)
            dense = []
            for op in (ax.entries, ap.entries):
                vec = op @ psi.amp
                mean = float(np.real(np.vdot(psi.amp, vec)))
                dense += [mean, float(np.real(np.vdot(vec, vec))) - mean * mean]
            stats = direct_stats(psi)
            got = [stats.mean_X, stats.var_X, stats.mean_P, stats.var_P]
            assert np.abs(np.subtract(got, dense)).max() <= 1e-12 * (dim - 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            direct_stats(StateVector([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_populated_truncation_edge(self):
        with pytest.raises(ValueError, match="truncation"):
            direct_stats(basis_state(4, 3))


class TestClosedForm:
    def test_vacuum_endpoint(self):
        assert closed_form_indexes(9, 0.0, 1.3) == (0.0, 0.0)

    def test_number_state_endpoint(self):
        assert closed_form_indexes(9, 1.0, 1.3) == (-18.0, -18.0)

    def test_hand_evaluated_single_photon(self):
        # A(1,p) carries sqrt(N(N-1)) = 0; B(1,1/2) = 2 sqrt(1/4) = 1
        terms = squeezing_terms(1, 0.5)
        assert terms.A_term == 0.0
        assert terms.B_term == pytest.approx(1.0)
        s_x, s_p = closed_form_indexes(1, 0.5, 0.0)
        assert s_x == pytest.approx(0.0, abs=1e-15)
        assert s_p == pytest.approx(-1.0)

    def test_terms_nonnegative_and_vanish_at_edges(self):
        for p in np.linspace(0, 1, 11):
            terms = squeezing_terms(6, float(p))
            assert terms.A_term >= 0 and terms.B_term >= 0
        assert squeezing_terms(6, 0.0) == squeezing_terms(6, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_matches_direct_expectations_on_grid(self, n):
        worst = 0.0
        for p in np.linspace(0, 1, 11):
            for phi in np.linspace(0, TWO_PI, 11):
                s_x, s_p = closed_form_indexes(n, float(p), float(phi))
                stats = direct_stats(gbs_state(GbsParams(n, float(p), float(phi)), dim=n + 3))
                worst = max(worst, abs(s_x - stats.S_X), abs(s_p - stats.S_P))
        assert worst <= 1e-10

    def test_quarter_turn_duality(self):
        for p in (0.1, 0.5, 0.9):
            for phi in (0.0, 0.7, 2.2):
                s_x, s_p = closed_form_indexes(5, p, phi)
                dual_x, _ = closed_form_indexes(5, p, phi + math.pi / 2)
                assert s_p == pytest.approx(dual_x, abs=1e-12)

    def test_half_turn_symmetry(self):
        s = closed_form_indexes(5, 0.4, 0.9)
        t = closed_form_indexes(5, 0.4, 0.9 + math.pi)
        assert s == pytest.approx(t, abs=1e-12)


class TestSqueezeScan:
    def test_row_major_ordering_and_sources_agree(self):
        p_grid = np.linspace(0, 1, 5)
        phi_grid = np.linspace(0, TWO_PI, 4)
        closed = squeeze_scan(3, p_grid, phi_grid, source="closed_form")
        direct = squeeze_scan(3, p_grid, phi_grid, source="direct")
        assert [(r.p, r.phi) for r in closed] == [
            (p, phi) for p in p_grid for phi in phi_grid
        ]
        for c, d in zip(closed, direct):
            assert abs(c.S_X - d.S_X) <= 1e-10
            assert abs(c.S_P - d.S_P) <= 1e-10
        assert direct[0].stats is not None and closed[0].stats is None

    def test_squeezing_exists_for_two_photons(self):
        rows = squeeze_scan(2, np.linspace(0, 1, 21), np.linspace(0, TWO_PI, 21))
        assert max(r.S_X for r in rows) > 0

    def test_larger_n_squeezes_harder(self):
        grid_p, grid_phi = np.linspace(0, 1, 21), np.linspace(0, TWO_PI, 21)
        small = max(r.S_X for r in squeeze_scan(2, grid_p, grid_phi))
        large = max(r.S_X for r in squeeze_scan(100, grid_p, grid_phi))
        assert large > small > 0

    def test_never_both_quadratures_squeezed(self):
        rows = squeeze_scan(7, np.linspace(0, 1, 21), np.linspace(0, TWO_PI, 21))
        assert all(not (r.S_X > 1e-12 and r.S_P > 1e-12) for r in rows)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            squeeze_scan(2, [0.5], [0.0], source="analytic")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            squeeze_scan(2, [], [0.0])

    def test_working_memory_stays_linear_in_n(self):
        # what the call holds at its peak beyond the rows it returns; one
        # (M + 1)-entry row per p would take 51 times 8 (N + 1) bytes
        N = 10**5
        p_grid, phi_grid = np.linspace(0.0, 1.0, 51), np.linspace(0.0, TWO_PI, 65)
        squeeze_scan(N, p_grid, phi_grid)  # the shared lgamma table reaches N first
        tracemalloc.start()
        try:
            rows = squeeze_scan(N, p_grid, phi_grid)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 51 * 65
        assert peak - held < 8 * 8 * (N + 1)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_finite_angle(phi):
    with pytest.raises(ValueError, match=f"angle must be finite, got {phi}"):
        closed_form_indexes(10, 0.3, phi)
    with pytest.raises(ValueError, match=f"angle must be finite, got {phi}"):
        squeeze_scan(10, [0.3, 0.7], [0.0, phi])
    with pytest.raises(ValueError, match=f"angle must be finite, got {phi}"):
        squeeze_scan(10, [0.3], [phi], source="direct")
