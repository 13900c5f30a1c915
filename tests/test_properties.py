"""Property tests over the parameter ranges the API accepts.

Vector paths run over N in [0, 1000], p in [0, 1] and phi in [-1e6, 1e6];
matrix paths over 2J <= 64. The Delta ladder runs to N = 1e5 for a single
state and N = 600 for the full basis, and the rotation operator to N = 600.
The atomic-side operators are the
Holstein-Primakoff ones under p = cos^2(theta/2), phi = 2*pi - varphi, so
they are compared with the field side bit for bit where the arithmetic is
shared, and with the theta-literal formulas otherwise.
"""

import cmath
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbstates.cas import (
    CasParams,
    SpinJOperators,
    cas_state,
    rotated_cas_operators,
    rotation_operator_spin,
    spin_j_operators,
)
from gbstates.delta_basis import delta_basis, delta_state
from gbstates.gbs import (
    BlochAngles,
    GbsParams,
    gbs_overlap,
    gbs_state,
    orthogonal_partner,
    params_to_angles,
)
from gbstates.hilbert import adjoint
from gbstates.hp_algebra import (
    PseudoSpinSet,
    RotationSpec,
    hp_operators,
    rotated_operators,
    rotation_operator,
)

photons = st.integers(0, 1000)
probabilities = st.floats(0.0, 1.0)
phases = st.floats(-1e6, 1e6)
two_spins = st.integers(0, 64)
angles = st.builds(BlochAngles, st.floats(0.0, math.pi), phases)


def literal_rotated_cas(J, a: BlochAngles):
    """Jz' and Jplus' from the theta-literal formulas, the reference for the HP map."""
    ops = spin_j_operators(J)
    th = a.theta
    eph = cmath.exp(1j * a.varphi)
    jzp = math.cos(th) * ops.Jz + (math.sin(th) / 2.0) * (
        np.conj(eph) * ops.Jplus + eph * ops.Jminus
    )
    jplusp = eph * (
        math.cos(th / 2.0) ** 2 * np.conj(eph) * ops.Jplus
        - math.sin(th / 2.0) ** 2 * eph * ops.Jminus
        - math.sin(th) * ops.Jz
    )
    return jzp, jplusp


def casimir_dev(ops: PseudoSpinSet) -> float:
    j = ops.N / 2.0
    return float(np.abs(ops.Jsq.entries - j * (j + 1.0) * np.eye(ops.N + 1)).max())


@settings(deadline=None)
@given(photons, probabilities, phases)
def test_state_is_normalized(N, p, phi):
    assert abs(gbs_state(GbsParams(N, p, phi)).norm() - 1.0) <= 1e-12


@settings(deadline=None)
@given(st.integers(1, 1000), probabilities, phases)
def test_partner_is_orthogonal(N, p, phi):
    prm = GbsParams(N, p, phi)
    assert abs(gbs_overlap(prm, orthogonal_partner(prm))) <= 1e-12


@settings(deadline=None)
@given(photons, probabilities, phases)
@example(1, 1.0 - 2.0 ** -53, 0.0)
def test_gbs_cas_coefficient_map(N, p, phi):
    prm = GbsParams(N, p, phi)
    atomic = cas_state(CasParams(N / 2.0, params_to_angles(prm)))
    assert np.abs(atomic.amp - gbs_state(prm).amp).max() <= 1e-12


def test_spin_j_set_is_the_hp_set():
    assert SpinJOperators is PseudoSpinSet


@settings(deadline=None)
@given(two_spins)
def test_spin_j_operators_equal_hp_operators(two_j):
    atomic, field = spin_j_operators(two_j / 2.0), hp_operators(two_j)
    assert atomic.J == two_j / 2.0 and atomic.Jz is atomic.J3
    for name in ("J3", "Jplus", "Jminus"):
        np.testing.assert_array_equal(getattr(atomic, name).entries, getattr(field, name).entries)


@settings(deadline=None)
@given(two_spins, angles)
def test_rotation_operator_spin_is_bit_equal(two_j, a):
    np.testing.assert_array_equal(
        rotation_operator_spin(two_j / 2.0, a).entries,
        rotation_operator(two_j, RotationSpec.from_angles(a)).entries,
    )


@settings(deadline=None)
@given(two_spins, angles)
def test_rotated_cas_operators_match_theta_literal(two_j, a):
    rot = rotated_cas_operators(two_j / 2.0, a)
    jzp, jplusp = literal_rotated_cas(two_j / 2.0, a)
    for got, ref in ((rot.Jz, jzp), (rot.Jplus, jplusp), (rot.Jminus, adjoint(jplusp))):
        assert np.abs(got.entries - ref.entries).max() <= 1e-14 * np.abs(ref.entries).max()


@settings(deadline=None)
@given(two_spins, probabilities, phases, angles)
def test_casimir_is_scalar_on_raw_and_rotated_sets(two_j, p, phi, a):
    assert casimir_dev(hp_operators(two_j)) <= 1e-12
    assert casimir_dev(rotated_operators(two_j, p, phi)) <= 1e-12
    assert casimir_dev(rotated_cas_operators(two_j / 2.0, a)) <= 1e-12


def apply_rotated_j3(v, N, p, phi):
    """J3' v = (2p-1) J3 v + sqrt(p(1-p)) (e^(i phi) J+ + e^(-i phi) J-) v in O(N)."""
    n, k = np.arange(N + 1), np.arange(N)
    ladder = np.sqrt((N - k) * (k + 1.0))  # <k+1|J+|k>
    out = (2.0 * p - 1.0) * (n - N / 2.0) * v
    out[1:] += math.sqrt(p * (1.0 - p)) * cmath.exp(1j * phi) * ladder * v[:-1]
    out[:-1] += math.sqrt(p * (1.0 - p)) * cmath.exp(-1j * phi) * ladder * v[1:]
    return out


def ladder_residual(v, N, m, p, phi):
    """max |J3' v - (m - N/2) v| at the canonical angle of the top rung gbs_state."""
    prm = GbsParams(N, p, phi)
    return float(np.abs(apply_rotated_j3(v, N, prm.p, prm.phi) - (m - N / 2.0) * v).max())


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 100_000), st.data(), probabilities, phases)
def test_delta_state_is_a_normalized_eigenvector(N, data, p, phi):
    m = data.draw(st.integers(0, N))
    v = delta_state(N, m, p, phi).amp
    assert ladder_residual(v, N, m, p, phi) <= 1e-9
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 600), probabilities, phases)
@example(129, 0.37, 1.1)
@example(192, 0.37, 1.1)
@example(257, 0.37, 1.1)
def test_delta_basis_is_orthonormal_eigenbasis(N, p, phi):
    vecs = np.array([s.amp for s in delta_basis(N, p, phi).states]).T
    assert np.abs(vecs.conj().T @ vecs - np.eye(N + 1)).max() <= 1e-10
    assert max(ladder_residual(vecs[:, m], N, m, p, phi) for m in range(N + 1)) <= 1e-9


def literal_ladder_apply(r, a: BlochAngles):
    """Jz' r and Jplus' r column by column, banded, from the theta-literal formulas."""
    N = r.shape[0] - 1
    k = np.arange(N)
    ladder = np.sqrt((N - k) * (k + 1.0))[:, None]  # <k+1|J+|k>
    jz = (np.arange(N + 1) - N / 2.0)[:, None] * r
    jp, jm = np.zeros_like(r), np.zeros_like(r)
    jp[1:] = ladder * r[:-1]
    jm[:-1] = ladder * r[1:]
    th, eph = a.theta, cmath.exp(1j * a.varphi)
    jzp = math.cos(th) * jz + (math.sin(th) / 2.0) * (np.conj(eph) * jp + eph * jm)
    jplusp = eph * (
        math.cos(th / 2.0) ** 2 * np.conj(eph) * jp
        - math.sin(th / 2.0) ** 2 * eph * jm
        - math.sin(th) * jz
    )
    return jzp, jplusp


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 600), angles)
@example(512, BlochAngles(math.pi, 0.3))
@example(512, BlochAngles(1e-9, 0.3))
def test_rotation_is_the_ladder_of_the_rotated_set(N, a):
    """R is unitary, R J3 R^+ = J3', column N is the state up to e^(i N varphi),
    and <R_(m+1)| Jplus' |R_m> = sqrt((N-m)(m+1)): together they fix R."""
    r = rotation_operator(N, RotationSpec.from_angles(a)).entries
    assert np.abs(r.conj().T @ r - np.eye(N + 1)).max() <= 1e-12
    jzp_r, jplusp_r = literal_ladder_apply(r, a)
    m = np.arange(N + 1)
    assert np.abs(jzp_r - r * (m - N / 2.0)).max() <= 1e-9
    links = np.sum(r[:, 1:].conj() * jplusp_r[:, :-1], axis=0)
    assert np.abs(links - np.sqrt((N - m[:-1]) * (m[:-1] + 1.0))).max(initial=0.0) <= 1e-9
    atomic = cas_state(CasParams(N / 2.0, a)).amp
    assert np.abs(r[:, N] * cmath.exp(-1j * N * a.varphi) - atomic).max() <= 1e-12
