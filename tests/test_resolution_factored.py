"""The factored resolution kernel against the grid sums it replaced.

identity_resolution, reconstruct and their CAS twins used to build the
full amplitude grid, one row per (theta_k, phi_j) node, and sum its
projectors. The references below keep that code. The factored kernel sums
the same finite sum in another order, so agreement is required to 1e-14
absolute rather than bit for bit.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstates import resolution
from gbstates.cas import cas_expansion_check, cas_identity_resolution
from gbstates.gbs import binomial_amplitudes
from gbstates.hilbert import StateVector
from gbstates.resolution import (
    SphereQuadrature,
    _polar_rows,
    identity_resolution,
    reconstruct,
)

ATOL = 1e-14


def ref_grid_amplitudes(N, quad, sign):
    """Amplitudes of every grid state (sign -1 gives the CAS coefficients)
    and the measure factor (N+1) w_k / (2 M) of its node."""
    phis = quad.phi_values
    n = np.arange(N + 1)
    amps = []
    weights = []
    for theta, w in quad.theta_nodes:
        mods = binomial_amplitudes(N, math.cos(theta / 2.0) ** 2)
        amps.append(mods[None, :] * np.exp(sign * 1j * np.outer(phis, n)))
        weights.append(np.full(quad.phi_count, (N + 1) * w / (2.0 * quad.phi_count)))
    return np.concatenate(amps, axis=0), np.concatenate(weights)


def ref_identity_resolution(N, quad, sign=1):
    amps, weights = ref_grid_amplitudes(N, quad, sign)
    return (amps.T * weights) @ amps.conj()


def ref_reconstruct(psi, N, quad, sign=1):
    amps, weights = ref_grid_amplitudes(N, quad, sign)
    coeffs = amps.conj() @ psi[: N + 1]
    out = np.zeros(psi.size, dtype=np.complex128)
    out[: N + 1] = (weights * coeffs) @ amps
    return out


def threshold_grid(N):
    return SphereQuadrature.build(math.ceil((N + 1) / 2), N + 1)


N_VALUES = (0, 1, 2, 3, 12, 64, 128)
CASES = (
    [(N, "default", SphereQuadrature.default_for) for N in N_VALUES]
    + [(N, "threshold", threshold_grid) for N in N_VALUES]
    + [
        (3, "phi-under-resolved", lambda N: SphereQuadrature.build(4, 2)),
        (12, "phi-under-resolved", lambda N: SphereQuadrature.build(4, 2)),
        (9, "theta-under-resolved", lambda N: SphereQuadrature.build(2, 12)),
        (12, "theta-under-resolved", lambda N: SphereQuadrature.build(2, 12)),
    ]
)
IDS = [f"N{N}-{kind}" for N, kind, _ in CASES]


def random_state(rng, N, dim):
    v = np.zeros(dim, dtype=np.complex128)
    v[: N + 1] = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("N, kind, make", CASES, ids=IDS)
def test_matrices_match_grid_sum(N, kind, make):
    quad = make(N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gbs_res = identity_resolution(N, quad).entries
        cas_res = cas_identity_resolution(N / 2.0, quad).entries
    assert np.abs(gbs_res - ref_identity_resolution(N, quad)).max() <= ATOL
    assert np.abs(cas_res - ref_identity_resolution(N, quad, sign=-1)).max() <= ATOL


@pytest.mark.parametrize("N, kind, make", CASES, ids=IDS)
def test_reconstructions_match_grid_sum(N, kind, make):
    quad = make(N)
    rng = np.random.default_rng(N)
    for dim in (N + 1, N + 4):
        psi = random_state(rng, N, dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = reconstruct(StateVector(psi), N, quad).amp
        assert out.size == dim
        assert np.abs(out - ref_reconstruct(psi, N, quad)).max() <= ATOL
    psi = random_state(rng, N, N + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = cas_expansion_check(N / 2.0, StateVector(psi), quad).amp
    assert np.abs(out - ref_reconstruct(psi, N, quad, sign=-1)).max() <= ATOL


@pytest.mark.parametrize("N, kind, make", CASES, ids=IDS)
def test_polar_rows_bit_equal_per_node_rows(N, kind, make):
    # the one-pass rows repeat binomial_amplitudes' arithmetic node by node
    p_values = [math.cos(theta / 2.0) ** 2 for theta in make(N).theta_nodes[:, 0]]
    ref = np.array([binomial_amplitudes(N, p) for p in p_values])
    assert np.array_equal(_polar_rows(N, p_values), ref)


@pytest.mark.parametrize("N", [0, 1, 7, 192, 300])
def test_polar_rows_bit_equal_at_the_poles_and_edges(N):
    # p = 0, 1 take binomial_amplitudes' exact rows; the rest the one-pass rows
    p_values = [0.0, 5e-324, 1e-9, 0.37, 1.0 - 2.0**-53, 1.0, 0.5]
    ref = np.array([binomial_amplitudes(N, p) for p in p_values])
    assert np.array_equal(_polar_rows(N, p_values), ref)


@pytest.mark.parametrize("N", range(0, 600, 7))
def test_quadrature_rows_are_the_binomial_amplitudes_of_the_node_probabilities(N, monkeypatch):
    # identity_resolution reads each node's p from quad.p_values, the one formula,
    # which keeps the math.cos bytes that the kernel took before
    quad = SphereQuadrature.default_for(N)
    assert quad.p_values.tolist() == [math.cos(t / 2.0) ** 2 for t in quad.theta_nodes[:, 0]]
    seen = []
    real = resolution._polar_rows

    def spy(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    monkeypatch.setattr(resolution, "_polar_rows", spy)
    identity_resolution(N, quad)
    (((n, p_values), rows),) = seen
    assert n == N and p_values.tobytes() == quad.p_values.tobytes()
    for p, row in zip(p_values, rows):
        assert row.tobytes() == binomial_amplitudes(N, p).tobytes()


def test_negative_photon_number_rejected():
    with pytest.raises(ValueError, match="non-negative integer"):
        identity_resolution(-1, SphereQuadrature.build(2, 2))


@pytest.mark.parametrize("N", N_VALUES)
def test_cas_resolution_is_exact_conjugate(N):
    quad = SphereQuadrature.default_for(N)
    cas_res = cas_identity_resolution(N / 2.0, quad).entries
    assert np.array_equal(cas_res, identity_resolution(N, quad).entries.conj())


@pytest.mark.parametrize(
    "call",
    [
        lambda q: identity_resolution(3, q),
        lambda q: reconstruct(StateVector(np.eye(4)[0]), 3, q),
        lambda q: cas_identity_resolution(1.5, q),
        lambda q: cas_expansion_check(1.5, StateVector(np.eye(4)[0]), q),
    ],
    ids=["identity_resolution", "reconstruct", "cas_identity_resolution", "cas_expansion_check"],
)
def test_under_resolved_warning_points_at_the_caller(call):
    with pytest.warns(UserWarning, match="under-resolved for N=3") as record:
        call(SphereQuadrature.build(4, 2))
    assert [w.filename for w in record] == [__file__]


def traced_peak_mb(call):
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 1e6


def test_identity_resolution_n512_memory_and_off_diagonal():
    # the amplitude grid alone was 1.04 GiB here; diagonal roundoff of the
    # Gauss-Legendre rule exceeds 1e-12 at some N and is not gated here
    N = 512
    res, peak_mb = traced_peak_mb(lambda: identity_resolution(N, SphereQuadrature.default_for(N)))
    assert peak_mb < 64.0
    off_diag = res.entries - np.diag(np.diag(res.entries))
    assert np.abs(off_diag).max() <= 1e-14


def test_reconstruct_n1000_memory_and_round_trip():
    N = 1000
    psi = random_state(np.random.default_rng(5), N, N + 1)
    quad = SphereQuadrature.default_for(N)
    out, peak_mb = traced_peak_mb(lambda: reconstruct(StateVector(psi), N, quad))
    assert peak_mb < 160.0
    assert np.abs(out.amp - psi).max() <= 1e-10


# The azimuthal average is exactly [M | d], so the kernel keeps only the
# diagonals of G at offsets that are multiples of M.


def off_diagonal_offsets(res):
    """Offsets d > 0 with a nonzero entry on the d-th super- or sub-diagonal."""
    return {
        d
        for d in range(1, res.shape[0])
        if np.any(np.diagonal(res, d) != 0.0) or np.any(np.diagonal(res, -d) != 0.0)
    }


@pytest.mark.parametrize("N", [0, 1, 2, 7, 64, 192])
@pytest.mark.parametrize("extra_phi", [0, 1, 9, "default"])
def test_off_diagonals_exactly_zero_on_exact_phase_grids(N, extra_phi):
    if extra_phi == "default":
        quad = SphereQuadrature.default_for(N)
    else:
        quad = SphereQuadrature.build(N // 2 + 1, N + 1 + extra_phi)
    res = identity_resolution(N, quad).entries
    assert off_diagonal_offsets(res) == set()
    assert np.all(res.imag == 0.0)


@pytest.mark.parametrize(
    "N, M", [(N, M) for N in (3, 12, 40, 65) for M in (1, 2, 3, 5, 13, N) if M <= N]
)
def test_aliasing_diagonals_only_at_multiples_of_m(N, M):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = identity_resolution(N, SphereQuadrature.build(N // 2 + 2, M)).entries
    offsets = off_diagonal_offsets(res)
    assert offsets and all(d % M == 0 for d in offsets)
    assert np.array_equal(res, res.T)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_kernel_matches_grid_sum_on_any_grid(data):
    N = data.draw(st.integers(0, 40), label="N")
    K = data.draw(st.integers(1, N + 3), label="K")
    M = data.draw(st.integers(1, 2 * N + 3), label="M")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    quad = SphereQuadrature.build(K, M)
    psi = random_state(np.random.default_rng(seed), N, N + 1 + data.draw(st.integers(0, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = identity_resolution(N, quad).entries
        cas_res = cas_identity_resolution(N / 2.0, quad).entries
        rec = reconstruct(StateVector(psi), N, quad).amp
        cas_rec = cas_expansion_check(N / 2.0, StateVector(psi[: N + 1]), quad).amp
    ref = ref_identity_resolution(N, quad)
    # a coarse polar grid puts entries up to about (N+1) max_n m[n]^2 (5 at N = 40,
    # K = 1), where both sums round at ATOL relative to that size
    tol = ATOL * max(1.0, np.abs(ref).max())
    assert np.abs(res - ref).max() <= tol
    assert np.abs(cas_res - ref_identity_resolution(N, quad, sign=-1)).max() <= tol
    assert np.abs(rec - ref_reconstruct(psi, N, quad)).max() <= tol
    assert np.abs(cas_rec - ref_reconstruct(psi[: N + 1], N, quad, sign=-1)).max() <= tol


@pytest.mark.parametrize("N", [0, 1, 2, 5, 12, 64, 129])
@pytest.mark.parametrize("grid", ["default", "threshold", "under-resolved"])
def test_cas_resolution_is_the_field_resolution_byte_for_byte(N, grid):
    quad = {
        "default": SphereQuadrature.default_for(N),
        "threshold": threshold_grid(N),
        "under-resolved": SphereQuadrature.build(3, 2),
    }[grid]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cas_res = cas_identity_resolution(N / 2.0, quad).entries
        res = identity_resolution(N, quad).entries
    assert cas_res.tobytes() == res.tobytes()
