"""Wigner's d-matrix as a Fourier sum over the cached Jx eigenbasis.

The rotations and the Delta basis take their real core from hp_algebra._wigner_d,
which reads the eigenbasis of Jx that _jx_basis keeps for the most recent N.
The cache must change no bytes, whether it is cold, warm, evicted by another N
or shared by two threads, and no caller may write through it. The kernel is
checked against the dense-expm oracle at both parities of N.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg.lapack

from gbstates import oracles
from gbstates.delta_basis import delta_basis
from gbstates.gbs import BlochAngles, GbsParams
from gbstates.hp_algebra import (
    RotationSpec,
    _jx_basis,
    hp_operators,
    link_operator,
    rotation_operator,
)


def outputs(N):
    """The bytes of a rotation, a link and a Delta basis at N, and their arrays."""
    rot = rotation_operator(N, RotationSpec.from_angles(BlochAngles(1.1, 0.3))).entries
    link = link_operator(N, GbsParams(N, 0.3, 1.0), GbsParams(N, 0.8, 4.0)).entries
    rows = [s.amp for s in delta_basis(N, 0.37, 2.2).states]
    return [rot.tobytes(), link.tobytes(), np.array(rows).tobytes()], [rot, link, *rows]


@pytest.mark.parametrize("N", [1, 2, 64, 65])
def test_cold_warm_and_evicted_calls_give_the_same_bytes(N):
    _jx_basis.cache_clear()
    cold = outputs(N)[0]
    assert outputs(N)[0] == cold  # warm
    outputs(N + 1)  # evicts N
    assert outputs(N)[0] == cold


def test_two_threads_interleaving_two_sizes_give_the_same_bytes():
    _jx_basis.cache_clear()
    want = {N: outputs(N)[0] for N in (64, 65)}
    bad = []

    def work(sizes):
        for N in sizes:
            if outputs(N)[0] != want[N]:
                bad.append(N)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # more threads than the 2 cores this was written on, each order twice
        threads = [
            threading.Thread(target=work, args=([64, 65][:: 1 - 2 * (i % 2)] * 10,))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


@pytest.mark.parametrize("N", [1, 64, 65])
def test_cached_basis_is_read_only_and_never_handed_out(N):
    arrays = outputs(N)[1]
    basis = _jx_basis(N)
    assert not basis.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 2.0
    assert not any(np.shares_memory(basis, a) for a in arrays)


def test_failed_inverse_iteration_is_an_error(monkeypatch):
    _jx_basis.cache_clear()
    monkeypatch.setattr(
        scipy.linalg.lapack, "dstein", lambda d, e, w, *_: (np.zeros((d.size, w.size)), 2)
    )
    with pytest.raises(ArithmeticError, match="2 eigenvectors of Jx failed at N=7"):
        rotation_operator(7, RotationSpec.from_angles(BlochAngles(0.4, 0.0)))


ORACLE_N = (63, 64, 192, 193)
ORACLE_P = (0.02, 0.3, 0.97, 1.0 - 1e-9)


@pytest.mark.parametrize("N", ORACLE_N)
def test_rotation_and_delta_basis_match_the_expm_oracle(N):
    ladder = hp_operators(N)
    for p in ORACLE_P:
        prm = GbsParams(N, p, 2.2)
        spec = RotationSpec.from_gbs(prm)
        r_expm = oracles.rotation_expm(ladder, spec.eta).entries
        # verify's rotation-vs-expm-oracle bound is 1e-12; measured below 1e-14 here
        assert np.abs(rotation_operator(N, spec).entries - r_expm).max() <= 1e-13, p
        # each Delta state is column m of R up to a phase; verify bounds 1 - |overlap|
        # by 1e-10, which an amplitude error of 1e-13 stays far inside
        for m, state in enumerate(delta_basis(N, p, 2.2).states):
            col = r_expm[:, m]
            j = np.argmax(np.abs(col))
            phase = state.amp[j] / col[j]
            assert abs(abs(phase) - 1.0) <= 1e-13, (p, m)
            assert np.abs(state.amp - phase * col).max() <= 1e-13, (p, m)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 2001])
def test_jx_basis_diagonalises_jx(N):
    basis = _jx_basis(N)
    mu = np.arange(N // 2 + 1) + (N % 2) / 2.0
    a = np.arange(N + 1)
    x = np.empty_like(basis)
    x[0::2], x[1::2] = basis[: N // 2 + 1], basis[N // 2 + 1 :]
    x[a // 2 % 2 == 1] *= -1.0
    off = 0.5 * np.sqrt((N - a[:-1]) * (a[:-1] + 1.0))
    jx_x = np.zeros_like(x)
    jx_x[1:] += off[:, None] * x[:-1]
    jx_x[:-1] += off[:, None] * x[1:]
    assert np.abs(jx_x - x * mu).max() <= 1e-15 * N + 1e-15
    assert np.abs(x.T @ x - np.eye(mu.size)).max() <= 1e-15 * N + 1e-15
    _jx_basis.cache_clear()
