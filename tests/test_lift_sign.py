"""The ladder sign of hp_algebra._lift against the band-by-band link.

Each eigenvector column v_m of the rotation gets the sign that makes
<v_(m+1)| M |v_m> positive. The reference below forms that link from three
(N+1)^2 band products; the code reads its sign from one entry per column
(_ladder_signs). The signs, and so every rotation built from them, must
agree byte for byte.
"""

import math

import numpy as np
import pytest

import gbstates.hp_algebra
from gbstates.cas import rotation_operator_spin
from gbstates.gbs import BlochAngles, GbsParams
from gbstates.hp_algebra import (
    RotationSpec,
    _ladder_bands,
    _ladder_eigenvectors,
    _ladder_signs,
    _lift,
    composition_residual,
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


def with_reference_signs(monkeypatch, call):
    """call() as the code gives it, and as the band-by-band link gives it."""
    out = call()
    with monkeypatch.context() as patch:
        patch.setattr(gbstates.hp_algebra, "_ladder_signs", ref_signs)
        ref = call()
    return out, ref


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def angles_at(p, varphi):
    return BlochAngles(2.0 * math.acos(math.sqrt(p)), varphi)


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("N", N_VALUES)
def test_one_entry_signs_match_the_band_link(N, p):
    v = _ladder_eigenvectors(N, p, 1.0 - p)
    m_bands = _ladder_bands(N, p, 1.0 - p)[1]
    flips = np.random.default_rng(N).choice([-1.0, 1.0], size=N + 1)
    for cols in (v, v * flips, -v):
        # |link| = sqrt((N-m)(m+1)) >= sqrt(N): the sign is never in doubt
        assert np.abs(ref_link(cols, m_bands)).min() >= 0.99 * math.sqrt(N)
        assert np.array_equal(_ladder_signs(cols, m_bands), ref_signs(cols, m_bands))


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("N", N_VALUES)
def test_lift_bit_equal_to_band_link_lift(monkeypatch, N, p):
    for half_alpha in HALF_ANGLES:
        out, ref = with_reference_signs(
            monkeypatch, lambda: _lift(N, p, 1.0 - p, 2.2, half_alpha).entries
        )
        assert same_bytes(out, ref)


@pytest.mark.parametrize("N", N_VALUES)
def test_rotations_and_links_bit_equal_to_band_link(monkeypatch, N):
    other = angles_at(0.21, 5.0)
    for p in P_VALUES:
        a = angles_at(p, 0.7)
        calls = {
            "rotation_operator": lambda: rotation_operator(N, RotationSpec.from_angles(a)).entries,
            "rotation_operator_spin": lambda: rotation_operator_spin(N / 2.0, a).entries,
            "link_operator": lambda: link_operator(
                N, GbsParams(N, p, 0.4), GbsParams(N, 0.63, 2.1)
            ).entries,
            "composition_residual": lambda: composition_residual(N, a, other),
        }
        for name, call in calls.items():
            out, ref = with_reference_signs(monkeypatch, call)
            assert same_bytes(out, ref), (name, p)
