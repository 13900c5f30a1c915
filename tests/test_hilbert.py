"""Tests for the dense linear-algebra substrate."""

import numpy as np
import pytest

from gbstates.cas import CasParams, cas_expansion_check, cas_state
from gbstates.delta_basis import delta_basis, delta_state
from gbstates.gbs import GbsParams, coherent_state_truncated, gbs_state, params_to_angles
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
from gbstates.hp_algebra import RotationSpec, link_operator, rotated_operators, rotation_operator
from gbstates.oracles import expm
from gbstates.resolution import SphereQuadrature, reconstruct


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


@pytest.mark.parametrize("wrap, shape", [(StateVector, (4,)), (OperatorMatrix, (3, 3))])
def test_a_writeable_array_is_copied(wrap, shape):
    arr = np.ones(shape, dtype=np.complex128)
    held = wrap(arr)
    values = held.amp if wrap is StateVector else held.entries
    arr[...] = 7.0
    assert values is not arr and (values == 1.0).all()


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _square():
    return np.arange(16, dtype=np.complex128).reshape(4, 4).copy()


# kind: (its owner, which owns the data; whether the owner is read-only; the array handed over)
CALLER_ARRAYS = {
    "read-only owner": (lambda: np.arange(4, dtype=np.complex128), True, lambda a: a),
    "read-only owner matrix": (_square, True, lambda a: a),
    "whole row of a read-only owner": (_square, True, lambda a: a[1]),
    "read-only row of a writeable owner": (_square, False, lambda a: _read_only(a.view())[1]),
    "part of a row": (_square, True, lambda a: a[1, :2]),
    "strided column": (_square, True, lambda a: a[:, 1]),
    "read-only view": (lambda: np.arange(6, dtype=np.complex128), False, lambda a: _read_only(a[1:5])),
    "read-only transpose": (_square, False, lambda a: _read_only(a.T)),
    "another dtype": (lambda: np.arange(4.0), True, lambda a: a),
}


@pytest.mark.parametrize("kind", CALLER_ARRAYS)
def test_a_callers_array_is_copied(kind):
    """Whatever its flags, a caller's array is copied: the caller may make its own
    array writeable again and change it, and the object keeps its values."""
    make_owner, read_only, handed = CALLER_ARRAYS[kind]
    owner = make_owner()
    owner.setflags(write=not read_only)
    arr = handed(owner)
    expected = arr.astype(np.complex128)
    held = StateVector(arr).amp if arr.ndim == 1 else OperatorMatrix(arr).entries
    assert not np.shares_memory(held, owner)
    assert held.dtype == np.complex128 and not held.flags.writeable
    owner.setflags(write=True)
    owner[...] = 7.0
    assert (held == expected).all()


def test_a_whole_row_of_a_handed_over_matrix_is_adopted():
    basis = delta_basis(6, 0.3, 1.1)
    shared = basis.states[0].amp.base
    assert shared.shape == (7, 7) and not shared.flags.writeable
    assert all(s.amp.base is shared for s in basis.states)
    assert delta_state(6, 2, 0.3, 1.1).amp.base.shape == (1, 7)


def test_adopt_keeps_the_array_and_checks_its_shape():
    amp = np.arange(4, dtype=np.complex128)
    assert StateVector._adopt(amp).amp is amp and not amp.flags.writeable
    assert StateVector._adopt(np.arange(4.0)).amp.dtype == np.complex128
    assert (identity(2) * np.longdouble(2.0)).entries.dtype == np.complex128
    with pytest.raises(ValueError, match="2-d"):
        OperatorMatrix._adopt(np.zeros(3, dtype=np.complex128))
    with pytest.raises(ValueError, match="square"):
        OperatorMatrix._adopt(np.zeros((2, 3), dtype=np.complex128))
    with pytest.raises(ValueError, match="1-d"):
        StateVector._adopt(np.zeros((2, 2), dtype=np.complex128))
    with pytest.raises(ValueError, match=">= 1"):
        StateVector._adopt(np.zeros(0, dtype=np.complex128))


def test_every_producer_adopts_a_read_only_complex128_array(monkeypatch):
    """Each producer hands the array it built to _adopt: with the copying
    constructors disabled, every one still returns a read-only complex128 array."""
    N, p, phi = 6, 0.3, 1.1
    prm = GbsParams(N, p, phi)
    psi, quad = gbs_state(prm), SphereQuadrature.build(N // 2 + 1, N + 1)
    a = OperatorMatrix(np.arange(49.0).reshape(7, 7) * (1 + 1j))

    def copying(self):
        raise AssertionError(f"a producer built a {type(self).__name__} by copying")

    monkeypatch.setattr(StateVector, "__post_init__", copying)
    monkeypatch.setattr(OperatorMatrix, "__post_init__", copying)
    ops = rotated_operators(N, p, phi)
    produced = {
        "gbs_state": gbs_state(prm),
        "cas_state": cas_state(CasParams(N / 2, params_to_angles(prm))),
        "coherent_state_truncated": coherent_state_truncated(0.5, 30),
        "reconstruct": reconstruct(psi, N, quad),
        "cas_expansion_check": cas_expansion_check(N / 2, psi, quad),
        "rotation_operator": rotation_operator(N, RotationSpec.from_gbs(prm)),
        "link_operator": link_operator(N, prm, GbsParams(N, 0.6, 2.0)),
        "rotated J3": ops.J3,
        "rotated Jplus": ops.Jplus,
        "rotated Jminus": ops.Jminus,
        "Jsq": ops.Jsq,
        "delta_state": delta_state(N, 2, p, phi),
        "sum": a + a,
        "difference": a - a,
        "negation": -a,
        "scalar product": 2j * a,
        "product": a @ a,
        "apply": a @ psi,
        "normalized": apply(a, psi).normalized(),
        "commutator": commutator(a, ops.J3),
        "adjoint": adjoint(a),
        "basis_state": basis_state(3, 1),
        "identity": identity(3),
    }
    produced.update((f"delta_basis[{m}]", s) for m, s in enumerate(delta_basis(N, p, phi).states))
    for name, value in produced.items():
        arr = value.amp if isinstance(value, StateVector) else value.entries
        assert arr.dtype == np.complex128 and not arr.flags.writeable, name
    # the transpose keeps its F layout, as the copy it replaced did
    assert ops.Jminus.entries.flags.f_contiguous and adjoint(a).entries.flags.f_contiguous
    shared = produced["delta_basis[0]"].amp.base
    assert shared.shape == (N + 1, N + 1) and not shared.flags.writeable
    assert all(produced[f"delta_basis[{m}]"].amp.base is shared for m in range(N + 1))


def test_normalized_flag_and_renormalization():
    v = StateVector([3.0, 4.0])
    assert not v.is_normalized()
    assert v.normalized().is_normalized()
    with pytest.raises(ValueError):
        StateVector([0.0, 0.0]).normalized()
