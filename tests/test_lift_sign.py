"""The ladder sign rule on the columns of hp_algebra's rotations.

Each column v_m of the real core of a rotation must have the sign that makes
column N non-negative and <v_(m+1)| M |v_m> positive, as the ladder
R0 J+ R0^T requires. The reference below forms that link from three
(N+1)^2 band products, so ref_signs, the signs that would restore the rule,
must be all +1 on every real core the code builds: the columns of
_ladder_eigenvectors, of _lift, and of the rotations and links built on it,
with their phases taken off.
"""

import cmath
import math

import numpy as np
import pytest

from gbstates.cas import rotation_operator_spin
from gbstates.gbs import BlochAngles, GbsParams, params_to_angles
from gbstates.hp_algebra import (
    RotationSpec,
    _ladder_bands,
    _ladder_eigenvectors,
    _lift,
    _lift_spin_half,
    _spin_half,
    composition_angles,
    link_operator,
    rotation_operator,
)

N_VALUES = (1, 2, 3, 4, 5, 6, 7, 64, 192, 513, 1000)
P_VALUES = (1e-9, 0.37, 0.5, 1.0 - 1e-9)
HALF_ANGLES = (0.0, 0.3, math.pi - 1e-9)


def ref_link(v, m_bands):
    """<v_(m+1)| M |v_m> for m = 0..N-1, band by band."""
    m_diag, m_sub, m_sup = m_bands
    return (
        np.sum(v[1:, 1:] * m_sub[:, None] * v[:-1, :-1], axis=0)
        + np.sum(v[:-1, 1:] * m_sup[:, None] * v[1:, :-1], axis=0)
        + np.sum(v[:, 1:] * m_diag[:, None] * v[:, :-1], axis=0)
    )


def ref_signs(v, m_bands):
    link = ref_link(v, m_bands)
    return np.append(np.cumprod(np.sign(link)[::-1])[::-1], 1.0) * np.sign(v[:, -1].sum())


def assert_sign_rule(core, p, label=None):
    """core is real and keeps the sign rule of the ladder at p, with every link far
    from zero: |link| = sqrt((N-m)(m+1)) >= sqrt(N)."""
    N = core.shape[0] - 1
    m_bands = _ladder_bands(N, p, 1.0 - p)[1]
    assert np.abs(ref_link(core, m_bands)).min() >= 0.99 * math.sqrt(N), label
    assert np.array_equal(ref_signs(core, m_bands), np.ones(N + 1)), label


def real_core(w, u):
    """The real d of a lift w of the SU(2) matrix u: w[n, m] with the phases
    e^(i a (N - 2n)) e^(-i n phi) e^(i m phi) of _lift taken off."""
    N = w.shape[0] - 1
    half_alpha = cmath.phase(u[0, 0]) if abs(u[0, 0]) > 0.0 else 0.0
    phi = cmath.phase(u[0, 1]) - half_alpha
    n = np.arange(N + 1)
    core = w * np.exp(-1j * (half_alpha * (N - 2 * n) - phi * n))[:, None] * np.exp(-1j * phi * n)
    assert np.abs(core.imag).max() <= 1e-11
    return core.real, abs(u[0, 0]) ** 2


def angles_at(p, varphi):
    return BlochAngles(2.0 * math.acos(math.sqrt(p)), varphi)


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("N", N_VALUES)
def test_ladder_columns_keep_the_sign_rule(N, p):
    v = _ladder_eigenvectors(N, p, 1.0 - p)
    assert_sign_rule(v, p)
    # the reference finds any flipped column
    flips = np.random.default_rng(N).choice([-1.0, 1.0], size=N + 1)
    assert np.array_equal(ref_signs(v * flips, _ladder_bands(N, p, 1.0 - p)[1]), flips)


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("N", N_VALUES)
def test_lift_columns_keep_the_sign_rule(N, p):
    theta = 2.0 * math.atan2(math.sqrt(1.0 - p), math.sqrt(p))
    for half_alpha in HALF_ANGLES:
        u = np.diag([cmath.exp(1j * half_alpha), cmath.exp(-1j * half_alpha)])
        u = u @ _spin_half(theta, 2.2)
        assert_sign_rule(*real_core(_lift(N, theta, 2.2, half_alpha).entries, u))


@pytest.mark.parametrize("N", N_VALUES)
def test_rotations_and_links_keep_the_sign_rule(N):
    other = angles_at(0.21, 5.0)
    for p in P_VALUES:
        a = angles_at(p, 0.7)
        x, y = GbsParams(N, p, 0.4), GbsParams(N, 0.63, 2.1)
        ax, ay = params_to_angles(x), params_to_angles(y)
        # the composite rotation of composition_residual, its angle possibly above pi
        big_theta, big_phi, _ = composition_angles(a, other)
        lifts = {
            "rotation_operator": (
                rotation_operator(N, RotationSpec.from_angles(a)),
                _spin_half(a.theta, a.varphi),
            ),
            "rotation_operator_spin": (
                rotation_operator_spin(N / 2.0, a),
                _spin_half(a.theta, a.varphi),
            ),
            "link_operator": (
                link_operator(N, x, y),
                _spin_half(ay.theta, ay.varphi) @ _spin_half(ax.theta, ax.varphi).conj().T,
            ),
            "composition_residual": (
                _lift_spin_half(N, _spin_half(big_theta, big_phi)),
                _spin_half(big_theta, big_phi),
            ),
        }
        for name, (w, u) in lifts.items():
            assert_sign_rule(*real_core(w.entries, u), label=(name, p))
