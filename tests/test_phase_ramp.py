"""The one phase-ramp kernel, gbs._phase_ramp, against mpmath, and its windows
against its whole row.

Every O(N) ramp e^(i n phi) of the package comes from this kernel: the states
of gbs and cas, the overlap sum, the rotation columns, the Delta basis and the
expansion series. Its bound is 4 eps per entry, where phases from the rounded
product n * phi are off by up to |n phi| eps / 2 (5.8e-11 at n = 1e5).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbstates.cas import CasParams, cas_state
from gbstates.gbs import _RAMP_BLOCK, BlochAngles, GbsParams, _phase_ramp, gbs_state
from gbstates.oracles import exact_phase_ramp

EPS = np.finfo(float).eps
EDGE_PHIS = (0.0, math.nextafter(2.0 * math.pi, 0.0), 1e6)


def whole_ramp(phi, size):
    return _phase_ramp(phi, 0, np.empty(size, dtype=np.complex128))


def sample_indices(N):
    """Every 61st n up to N, N itself, and the entries beside the first and
    last few block boundaries, where the coarse factor changes."""
    b = _RAMP_BLOCK
    edges = [j * b + d for j in (1, 2, N // b - 1, N // b) for d in (-1, 0, 1)]
    n = np.concatenate((np.arange(0, N + 1, 61), [N], edges))
    return np.unique(n[(n >= 0) & (n <= N)])


def mpmath_errors(phi, n, values):
    """|values[k] - e^(i n[k] phi)| for the double phi, from 40-digit phases."""
    with mpmath.workdps(40):
        phi = mpmath.mpf(phi)
        errors = [abs(mpmath.mpc(z.real, z.imag) - mpmath.expj(int(k) * phi)) for k, z in zip(n, values)]
    return np.array(errors, dtype=float)


@pytest.mark.parametrize("N", (0, 1, 127, 128, 129, 1000, 10**5, 2 * 10**5))
@pytest.mark.parametrize("phi", EDGE_PHIS + (1.2, 5.99, -2.7, -1e6))
def test_ramp_is_within_four_eps_of_mpmath(N, phi):
    n = sample_indices(N)
    assert mpmath_errors(phi, n, whole_ramp(phi, N + 1)[n]).max() <= 4.0 * EPS


@pytest.mark.parametrize("phi", EDGE_PHIS + (1.2, 5.99, -2.7))
def test_exact_phase_reference_is_within_two_eps_of_mpmath(phi):
    # the reference of verify's phase-covariance check, built without the kernel
    n = sample_indices(2 * 10**5)
    assert mpmath_errors(phi, n, exact_phase_ramp(phi, n)).max() <= 2.0 * EPS


@settings(deadline=None, max_examples=80)
@given(
    st.one_of(st.sampled_from(EDGE_PHIS), st.floats(-1e3, 1e3)),
    st.integers(0, 2 * 10**5),
    st.integers(0, 3000),
)
@example(1.3, 2004, 17)  # inside one block
@example(1.3, 2047, 1)  # one entry, the last of its block
@example(-2.7, 127, 2)  # across one boundary
@example(5.99, 36542, 16642)  # the support of gbs_state at N = 1e5, p = 0.37
@example(1e6, 0, 0)
def test_window_is_the_slice_of_the_whole_row(phi, lo, size):
    window = _phase_ramp(phi, lo, np.empty(size, dtype=np.complex128))
    assert window.tobytes() == whole_ramp(phi, lo + size)[lo:].tobytes()


def test_ramp_writes_into_a_slice_of_a_larger_row():
    row = np.zeros(1000, dtype=np.complex128)
    out = _phase_ramp(0.7, 300, row[300:700])
    assert out.base is row
    assert row[300:700].tobytes() == whole_ramp(0.7, 700)[300:].tobytes()
    assert not row[:300].any() and not row[700:].any()


@pytest.mark.parametrize("p, phi", [(0.37, 1.2), (0.5, 5.99), (0.81, 4.4)])
def test_large_n_state_phases_match_mpmath(p, phi):
    # phases from the rounded n * phi were off here by 3e-12 to 2.9e-11
    N = 10**5
    sigma = math.sqrt(N * p * (1.0 - p))
    n = np.unique(np.round(N * p + sigma * np.linspace(-6.0, 6.0, 97)).astype(int))
    gbs = gbs_state(GbsParams(N, p, phi)).amp[n]
    assert (mpmath_errors(phi, n, gbs / np.abs(gbs)) <= 1e-15).all()
    angles = BlochAngles(2.0 * math.atan2(math.sqrt(1.0 - p), math.sqrt(p)), phi)
    cas = cas_state(CasParams(N / 2, angles)).amp[n]
    assert (mpmath_errors(-phi, n, cas / np.abs(cas)) <= 1e-15).all()
