"""The spin core of hp_algebra: one set of real bands, every rotation one SU(2) lift.

No production path reaches the dense matrix exponential; composition_residual,
which lifts the composite rotation R(Theta, Phi) even for Theta > pi, agrees
with the dense-expm computation it replaced; bad N and non-finite phi are
ValueErrors.
"""

import cmath
import math

import numpy as np
import pytest

import gbstates.hilbert
import gbstates.hp_algebra
from gbstates.cas import rotated_cas_operators, rotation_operator_spin
from gbstates.delta_basis import delta_basis, delta_state
from gbstates.gbs import BlochAngles, GbsParams, gbs_state
from gbstates.hp_algebra import (
    RotationSpec,
    _ladder_rotation,
    _link,
    composition_angles,
    composition_residual,
    hp_operators,
    link_operator,
    rotated_operators,
    rotation_operator,
)

TWO_PI = 2 * math.pi


def test_no_production_path_reaches_the_dense_exponential(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix exponential called")

    monkeypatch.setattr(gbstates.hilbert, "expm", refuse)
    monkeypatch.setattr(gbstates.hp_algebra, "expm", refuse)
    with pytest.raises(AssertionError, match="dense"):
        _ladder_rotation(3, 0.2)  # the patch is live: the oracle does hit it
    a, b = BlochAngles(1.2, 0.3), BlochAngles(2.1, 2.8)
    x, y = GbsParams(9, 0.3, 1.1), GbsParams(9, 0.8, 4.0)
    hp_operators(9)
    rotated_operators(9, 0.3, 1.1)
    rotation_operator(9, RotationSpec.from_angles(a))
    link_operator(9, x, y)
    composition_residual(9, a, b)
    rotation_operator_spin(4.5, a)
    rotated_cas_operators(4.5, a)
    delta_basis(9, 0.3, 1.1)
    delta_state(9, 4, 0.3, 1.1)


def dense_composition_residual(N: int, a: BlochAngles, b: BlochAngles) -> float:
    """composition_residual with R(Theta, Phi) from the dense exponential: the reference."""
    t = _link(N, a, b)
    big_theta, big_phi, phase = composition_angles(a, b)
    r_comp = _ladder_rotation(N, (big_theta / 2.0) * cmath.exp(-1j * big_phi))
    return float(np.linalg.norm(t.entries - phase * r_comp.entries))


def _drawn_pairs():
    rng = np.random.default_rng(41)
    pairs = [(BlochAngles(2.9, 0.4), BlochAngles(2.5, 0.7 + math.pi))]  # Theta = 5.34
    for i in range(12):
        a = BlochAngles(float(rng.random() * math.pi), float(rng.random() * TWO_PI))
        # every other second axis near the opposite azimuth, where Theta often exceeds pi
        varphi = a.varphi + math.pi + rng.normal(0.0, 0.6) if i % 2 else rng.random() * TWO_PI
        pairs.append((a, BlochAngles(float(rng.random() * math.pi), float(varphi))))
    return pairs


def test_drawn_pairs_include_composite_angles_beyond_pi():
    big = [composition_angles(a, b)[0] for a, b in _drawn_pairs()]
    assert sum(t > math.pi for t in big) >= 4 and sum(t < math.pi for t in big) >= 4


@pytest.mark.parametrize("N", [1, 2, 7, 30])
def test_composition_residual_matches_dense_exponential(N):
    for a, b in _drawn_pairs():
        ref = dense_composition_residual(N, a, b)
        assert composition_residual(N, a, b) == pytest.approx(ref, rel=1e-12)


def test_composition_law_is_exact_on_one_axis_beyond_pi():
    a, b = BlochAngles(2.9, 0.4), BlochAngles(2.5, 0.4 + math.pi)  # Theta = 5.4
    assert composition_angles(a, b)[0] == pytest.approx(5.4)
    assert composition_residual(30, a, b) <= 1e-12


@pytest.mark.parametrize("phi", [1e6, 1e9, -7e8])
def test_rotated_operators_reduce_large_phi(phi):
    params = GbsParams(7, 0.42, phi)
    rot = rotated_operators(params.N, params.p, phi)
    state = gbs_state(params)
    assert np.abs((rot.J3 @ state).amp - (params.N / 2) * state.amp).max() <= 1e-10
    assert np.abs((rot.Jplus @ state).amp).max() <= 1e-10


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_rotated_operators_reject_non_finite_phi(phi):
    with pytest.raises(ValueError, match="finite"):
        rotated_operators(3, 0.5, phi)


@pytest.mark.parametrize("N", [-1, 2.5, math.inf, math.nan])
def test_bad_photon_number_is_a_value_error(N):
    a, b = BlochAngles(1.2, 0.3), BlochAngles(2.1, 2.8)
    for call in (
        lambda: hp_operators(N),
        lambda: rotated_operators(N, 0.3, 1.1),
        lambda: rotation_operator(N, RotationSpec.from_angles(a)),
        lambda: composition_residual(N, a, b),
    ):
        with pytest.raises(ValueError, match="non-negative integer"):
            call()
    # GbsParams holds a valid N, so a bad N cannot match it
    with pytest.raises(ValueError, match="share N"):
        link_operator(N, GbsParams(2, 0.3), GbsParams(2, 0.6))


def test_integral_float_photon_number_is_accepted():
    spec = RotationSpec.from_angles(BlochAngles(1.2, 0.3))
    assert np.array_equal(rotation_operator(3.0, spec).entries, rotation_operator(3, spec).entries)
    assert hp_operators(3.0).N == 3
