"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s) and asserts.
The whole module runs in well under two minutes.
"""

import math

import numpy as np

from gbstates.cas import (
    CasParams,
    cas_overlap_modulus_sq,
    cas_state,
    rotation_operator_spin,
)
from gbstates.delta_basis import delta_basis
from gbstates.gbs import (
    BlochAngles,
    GbsParams,
    coherent_state_truncated,
    gbs_overlap,
    gbs_state,
    orthogonal_partner,
    params_to_angles,
)
from gbstates.hilbert import StateVector, basis_state, commutator, inner
from gbstates.hp_algebra import (
    RotationSpec,
    hp_operators,
    rotated_operators,
    rotation_operator,
)
from gbstates.oracles import dicke_states_tensor, disentangled_rotation, expm, tensor_atom_space
from gbstates.resolution import SphereQuadrature, identity_resolution, reconstruct
from gbstates.squeezing import closed_form_indexes, direct_stats, squeezing_terms

TWO_PI = 2 * math.pi


def report(index, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {index:02d} {name}: {verdict} ({detail})")
    assert passed, f"criterion {index} {name}: {detail}"


def random_params(rng, n_max):
    return GbsParams(int(rng.integers(1, n_max + 1)), float(rng.random()), float(rng.random() * TWO_PI))


def test_01_orthogonal_partner():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        params = random_params(rng, 50)
        worst = max(worst, abs(gbs_overlap(params, orthogonal_partner(params))))
    report(1, "orthogonality-of-partner-states", worst <= 1e-12, f"max |overlap| = {worst:.3e}, tol 1e-12")


def test_02_closed_form_overlap():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        a = random_params(rng, 50)
        b = GbsParams(a.N, float(rng.random()), float(rng.random() * TWO_PI))
        worst = max(worst, abs(gbs_overlap(a, b) - inner(gbs_state(a), gbs_state(b))))
    report(2, "closed-form-vs-direct-overlap", worst <= 1e-12, f"max deviation = {worst:.3e}, tol 1e-12")


def test_03_rotation_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        params = random_params(rng, 30)
        r = rotation_operator(params.N, RotationSpec.from_gbs(params))
        fid = abs(inner(gbs_state(params), r @ basis_state(params.N + 1, params.N))) ** 2
        worst = max(worst, abs(1.0 - fid))
    report(3, "rotated-number-state-identity", worst <= 1e-10, f"max |1 - fidelity| = {worst:.3e}, tol 1e-10")


def test_04_operator_algebra():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for n in (1, 2, 5, 10, 30):
        ops = hp_operators(n)
        worst = max(
            worst,
            np.abs(commutator(ops.Jplus, ops.Jminus).entries - 2 * ops.J3.entries).max(),
            np.abs(commutator(ops.J3, ops.Jplus).entries - ops.Jplus.entries).max(),
            np.abs(commutator(ops.J3, ops.Jminus).entries + ops.Jminus.entries).max(),
            np.abs((ops.Jplus @ basis_state(n + 1, n)).amp).max(),
            np.abs((ops.Jminus @ basis_state(n + 1, 0)).amp).max(),
            np.abs((ops.J3 @ basis_state(n + 1, n)).amp - (n / 2) * basis_state(n + 1, n).amp).max(),
        )
        for _ in range(10):
            p, phi = float(rng.random()), float(rng.random() * TWO_PI)
            rot = rotated_operators(n, p, phi)
            params = GbsParams(n, p, phi)
            state = gbs_state(params)
            partner = gbs_state(orthogonal_partner(params))
            worst = max(
                worst,
                np.abs(commutator(rot.Jplus, rot.Jminus).entries - 2 * rot.J3.entries).max(),
                np.abs(commutator(rot.J3, rot.Jplus).entries - rot.Jplus.entries).max(),
                np.abs((rot.J3 @ state).amp - (n / 2) * state.amp).max(),
                np.abs((rot.Jplus @ state).amp).max(),
                np.abs((rot.J3 @ partner).amp + (n / 2) * partner.amp).max(),
                np.abs((rot.Jminus @ partner).amp).max(),
            )
    report(4, "holstein-primakoff-algebra", worst <= 1e-10, f"max residual = {worst:.3e}, tol 1e-10")


def test_05_completeness_and_reconstruction():
    ident_worst = 0.0
    for n in range(0, 21):
        res = identity_resolution(n, SphereQuadrature.default_for(n))
        ident_worst = max(ident_worst, np.abs(res.entries - np.eye(n + 1)).max())
    rng = np.random.default_rng(1005)
    rec_worst = 0.0
    quad = SphereQuadrature.default_for(12)
    for _ in range(50):
        v = rng.normal(size=13) + 1j * rng.normal(size=13)
        psi = StateVector(v / np.linalg.norm(v))
        rec_worst = max(rec_worst, np.abs(reconstruct(psi, 12, quad).amp - psi.amp).max())
    passed = ident_worst <= 1e-12 and rec_worst <= 1e-10
    report(
        5,
        "identity-resolution-and-round-trip",
        passed,
        f"max |quad - I| = {ident_worst:.3e} (tol 1e-12), max round-trip = {rec_worst:.3e} (tol 1e-10)",
    )


def test_06_delta_basis():
    rng = np.random.default_rng(1006)
    ladder_worst = 0.0
    for n in range(1, 31):
        p, phi = float(rng.uniform(0.05, 0.95)), float(rng.random() * TWO_PI)
        basis = delta_basis(n, p, phi)
        gram = np.array([[inner(a, b) for b in basis.states] for a in basis.states])
        ladder_worst = max(ladder_worst, np.abs(gram - np.eye(n + 1)).max())
        j3p = rotated_operators(n, p, phi).J3
        for m, s in enumerate(basis.states):
            ladder_worst = max(ladder_worst, np.abs((j3p @ s).amp - (m - n / 2) * s.amp).max())
    middle_worst = 0.0
    for _ in range(20):
        p, phi = float(rng.uniform(0.01, 0.99)), float(rng.random() * TWO_PI)
        mid = delta_basis(2, p, phi).states[1].amp
        target = np.array(
            [
                math.sqrt(2 * p * (1 - p)),
                (2 * p - 1) * np.exp(1j * phi),
                -math.sqrt(2 * p * (1 - p)) * np.exp(2j * phi),
            ]
        )
        middle_worst = max(middle_worst, np.abs(mid - target).max())
    passed = ladder_worst <= 1e-9 and middle_worst <= 1e-12
    report(
        6,
        "delta-ladder-basis",
        passed,
        f"max ladder residual = {ladder_worst:.3e} (tol 1e-9), N=2 middle = {middle_worst:.3e} (tol 1e-12)",
    )


def _phi_support(n, phi_grid, p_grid):
    best = np.full(phi_grid.size, -np.inf)
    for p in p_grid:
        terms = squeezing_terms(n, float(p))
        s_x = (
            -2.0 * n * p
            - terms.A_term * np.cos(2 * phi_grid)
            + terms.B_term**2 * np.cos(phi_grid) ** 2
        )
        best = np.maximum(best, s_x)
    return best > 0


def test_07_squeezing():
    agree = 0.0
    endpoints = 0.0
    exclusive = 0.0
    maxima = {}
    for n in (1, 2, 5, 20, 100):
        best = -np.inf
        for p in np.linspace(0, 1, 21):
            for phi in np.linspace(0, TWO_PI, 21):
                s_x, s_p = closed_form_indexes(n, float(p), float(phi))
                stats = direct_stats(gbs_state(GbsParams(n, float(p), float(phi)), dim=n + 3))
                agree = max(agree, abs(s_x - stats.S_X), abs(s_p - stats.S_P))
                exclusive = max(exclusive, min(s_x, s_p))
                best = max(best, s_x)
        maxima[n] = best
        e0 = closed_form_indexes(n, 0.0, 0.7)
        e1 = closed_form_indexes(n, 1.0, 0.7)
        endpoints = max(endpoints, abs(e0[0]), abs(e0[1]), abs(e1[0] + 2 * n), abs(e1[1] + 2 * n))
    phi_grid = np.arange(128) * (math.pi / 64)
    p_grid = np.linspace(0, 1, 201)
    small = _phi_support(2, phi_grid, p_grid)
    large = _phi_support(100, phi_grid, p_grid)

    def dilate(x):
        return x | np.roll(x, 1) | np.roll(x, -1)

    support_mismatch = int(np.sum((small & ~dilate(large)) | (large & ~dilate(small))))
    passed = (
        agree <= 1e-10
        and endpoints <= 1e-12
        and maxima[100] > maxima[2] > 0
        and exclusive <= 1e-12
        and support_mismatch == 0
    )
    report(
        7,
        "squeezing-indexes",
        passed,
        f"closed-vs-direct = {agree:.3e} (tol 1e-10), endpoints = {endpoints:.3e} (tol 1e-12), "
        f"max S_X: N=2 {maxima[2]:.4f} < N=100 {maxima[100]:.4f}, both-squeezed = {exclusive:.3e}, "
        f"phi-support mismatched cells = {support_mismatch}",
    )


def test_08_bijection_with_atomic_states():
    rng = np.random.default_rng(1008)
    coeff_worst = 0.0
    for n in range(1, 13):
        for _ in range(5):
            params = GbsParams(n, float(rng.random()), float(rng.random() * TWO_PI))
            atom = cas_state(CasParams(n / 2, params_to_angles(params)))
            coeff_worst = max(coeff_worst, np.abs(atom.amp - gbs_state(params).amp).max())
    tensor_worst = 0.0
    for n_atoms in range(1, 9):
        space = tensor_atom_space(n_atoms)
        dicke = dicke_states_tensor(n_atoms)
        angles = BlochAngles(float(np.arccos(rng.uniform(-1, 1))), float(rng.random() * TWO_PI))
        xi = (angles.theta / 2) * np.exp(-1j * angles.varphi)
        r = expm((-xi) * space.Jplus + np.conj(xi) * space.Jminus)
        rotated = (r @ dicke[-1]).amp
        coeffs = np.array([np.vdot(d.amp, rotated) for d in dicke])
        block_col = rotation_operator_spin(n_atoms / 2, angles).entries[:, -1]
        tensor_worst = max(tensor_worst, np.abs(coeffs - block_col).max())
        fid = abs(np.vdot(cas_state(CasParams(n_atoms / 2, angles)).amp, coeffs)) ** 2
        tensor_worst = max(tensor_worst, abs(1 - fid))
    passed = coeff_worst <= 1e-12 and tensor_worst <= 1e-12
    report(
        8,
        "gbs-cas-bijection",
        passed,
        f"coefficient match = {coeff_worst:.3e}, tensor oracle = {tensor_worst:.3e}, tol 1e-12",
    )


def test_09_appendix_formulas():
    rng = np.random.default_rng(1009)
    disent = 0.0
    for _ in range(100):
        two_j = int(rng.integers(1, 11))
        angles = BlochAngles(float(rng.random() * 3.0), float(rng.random() * TWO_PI))
        disent = max(
            disent,
            np.linalg.norm(
                disentangled_rotation(two_j / 2, angles).entries
                - rotation_operator_spin(two_j / 2, angles).entries
            ),
        )
    law = 0.0
    antipodal = 0.0
    for _ in range(200):
        two_j = int(rng.integers(1, 13))
        a = BlochAngles(float(np.arccos(rng.uniform(-1, 1))), float(rng.random() * TWO_PI))
        b = BlochAngles(float(np.arccos(rng.uniform(-1, 1))), float(rng.random() * TWO_PI))
        direct = abs(inner(cas_state(CasParams(two_j / 2, a)), cas_state(CasParams(two_j / 2, b)))) ** 2
        law = max(law, abs(direct - cas_overlap_modulus_sq(two_j / 2, a, b)))
        anti = BlochAngles(math.pi - a.theta, a.varphi + math.pi)
        antipodal = max(
            antipodal,
            abs(inner(cas_state(CasParams(two_j / 2, a)), cas_state(CasParams(two_j / 2, anti)))),
        )
    passed = disent <= 1e-9 and law <= 1e-10 and antipodal <= 1e-12
    report(
        9,
        "appendix-identities",
        passed,
        f"disentangling = {disent:.3e} (tol 1e-9), overlap law = {law:.3e} (tol 1e-10), "
        f"antipodal = {antipodal:.3e} (tol 1e-12)",
    )


def test_10_coherent_state_limit():
    fids = {}
    for n in (10, 50, 200):
        dim = max(n + 1, 31)
        alpha = coherent_state_truncated(1.0, dim)
        state = gbs_state(GbsParams(n, 1.0 / n, 0.0), dim=dim)
        fids[n] = abs(inner(alpha, state)) ** 2
    passed = fids[200] >= 0.99 and fids[10] <= fids[50] <= fids[200]
    report(
        10,
        "coherent-state-limit",
        passed,
        f"fidelities {fids[10]:.6f} <= {fids[50]:.6f} <= {fids[200]:.6f}, floor 0.99 at N=200",
    )
