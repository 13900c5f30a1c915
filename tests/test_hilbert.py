"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest

from gbstates.hilbert import (
    OperatorMatrix,
    StateVector,
    adjoint,
    apply,
    basis_state,
    commutator,
    identity,
    inner,
)
from gbstates.oracles import expm


def random_state(rng, dim):
    return StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_antihermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return OperatorMatrix(m - m.conj().T)


def test_inner_orthonormal_basis():
    e0, e1 = basis_state(3, 0), basis_state(3, 1)
    assert inner(e0, e0) == 1
    assert inner(e0, e1) == 0


def test_inner_superposition():
    plus = StateVector(np.array([1, 1, 0]) / np.sqrt(2))
    assert inner(plus, basis_state(3, 1)) == pytest.approx(1 / np.sqrt(2))


def test_inner_conjugate_linear_first_argument():
    u = StateVector([1j, 0.0])
    v = StateVector([1.0, 0.0])
    assert inner(u, v) == pytest.approx(-1j)


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u, v = random_state(rng, 6), random_state(rng, 6)
        assert inner(u, v) == pytest.approx(np.conj(inner(v, u)))


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner(basis_state(2, 0), basis_state(3, 0))


def test_apply_identity_and_zero():
    rng = np.random.default_rng(1)
    v = random_state(rng, 5)
    np.testing.assert_array_equal(apply(identity(5), v).amp, v.amp)
    zero = OperatorMatrix(np.zeros((5, 5)))
    assert np.all(apply(zero, v).amp == 0)


def test_apply_diagonal_action():
    number_op = OperatorMatrix(np.diag(np.arange(6, dtype=complex)))
    for k in range(6):
        out = apply(number_op, basis_state(6, k))
        np.testing.assert_allclose(out.amp, k * basis_state(6, k).amp)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        apply(identity(4), basis_state(5, 0))


def test_adjoint_involution():
    rng = np.random.default_rng(2)
    a = OperatorMatrix(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    np.testing.assert_array_equal(adjoint(adjoint(a)).entries, a.entries)


def test_commutator_with_self_and_diagonals():
    rng = np.random.default_rng(3)
    a = OperatorMatrix(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.all(commutator(a, a).entries == 0)
    d1 = OperatorMatrix(np.diag(rng.normal(size=4)))
    d2 = OperatorMatrix(np.diag(rng.normal(size=4)))
    assert np.all(commutator(d1, d2).entries == 0)


def test_expm_zero_is_identity():
    out = expm(OperatorMatrix(np.zeros((3, 3))))
    np.testing.assert_array_equal(out.entries, np.eye(3))


def test_expm_diagonal():
    lam = np.array([0.3, -1.2 + 0.7j, 2.0j])
    out = expm(OperatorMatrix(np.diag(lam)))
    np.testing.assert_allclose(out.entries, np.diag(np.exp(lam)), atol=1e-14)


def test_expm_matches_taylor_series():
    # brute-force power-series oracle, summed to machine convergence
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_antihermitian(rng, 4)
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 80):
            term = term @ g.entries / k
            series += term
        assert np.linalg.norm(expm(g).entries - series) <= 1e-12


@pytest.mark.parametrize("dim", [2, 5, 17])
def test_expm_antihermitian_is_unitary(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        u = expm(random_antihermitian(rng, dim))
        gram = (u @ adjoint(u)).entries
        assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10


def test_expm_preserves_norm():
    rng = np.random.default_rng(5)
    u = expm(random_antihermitian(rng, 8))
    v = random_state(rng, 8).normalized()
    assert abs(apply(u, v).norm() - 1.0) <= 1e-10


def test_expm_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        expm(OperatorMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]])))


def test_operator_must_be_square():
    with pytest.raises(ValueError, match="square"):
        OperatorMatrix(np.zeros((2, 3)))


def test_state_dimension_positive():
    with pytest.raises(ValueError):
        StateVector(np.array([]))


def test_values_are_frozen():
    v = basis_state(3, 0)
    with pytest.raises(ValueError):
        v.amp[0] = 2.0
    a = identity(3)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 2.0


def test_normalized_flag_and_renormalization():
    v = StateVector([3.0, 4.0])
    assert not v.is_normalized()
    assert v.normalized().is_normalized()
    with pytest.raises(ValueError):
        StateVector([0.0, 0.0]).normalized()
