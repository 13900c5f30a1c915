"""Numerical verification suites for every operator identity in the package.

Each group function exercises one family of invariants and returns a
machine-readable record; run_verification collects them. Checks default to
the tolerances the identities are specified at; a global tolerance
override replaces the upper bounds (useful to probe where roundoff
actually sits, e.g. --tolerance 1e-16 fails most groups by design).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import cas, gbs, hilbert, hp_algebra, oracles, resolution, squeezing
from .delta_basis import delta_basis, delta_state
from .gbs import BlochAngles, GbsParams
from .hilbert import StateVector, adjoint, basis_state, inner

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for a verification run.

    tolerance None keeps each check at its specified bound; a finite,
    non-negative float replaces the bound of every residual (<=) check.
    groups None runs everything. n restricts N-sweeps to one value where
    that makes sense. timings adds each group's wall time as its "seconds"
    field; off by default, so that a report's bytes depend on its inputs only.
    """

    tolerance: float | None = None
    seed: int = 7
    groups: tuple[str, ...] | None = None
    n: int | None = None
    timings: bool = False


def _json_float(x: float) -> float | None:
    """JSON has no NaN or infinity: a non-finite value is reported as null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _le(name: str, value: float, bound: float, cfg: VerifyConfig, diagnostic=False):
    if cfg.tolerance is not None and not diagnostic:
        bound = cfg.tolerance
    entry = {
        "name": name,
        "value": _json_float(value),
        "bound": _json_float(bound),
        "comparison": "<=",
        "passed": bool(value <= bound),
    }
    if diagnostic:
        entry["diagnostic"] = True
        entry["passed"] = True
    return entry


def _ge(name: str, value: float, bound: float):
    return {
        "name": name,
        "value": _json_float(value),
        "bound": _json_float(bound),
        "comparison": ">=",
        "passed": bool(value >= bound),
    }


def _random_params(rng, n_max=50, n_fixed=None) -> GbsParams:
    n = n_fixed if n_fixed is not None else int(rng.integers(1, n_max + 1))
    return GbsParams(n, float(rng.random()), float(rng.random() * TWO_PI))


def _random_angles(rng) -> BlochAngles:
    return BlochAngles(float(np.arccos(rng.uniform(-1, 1))), float(rng.random() * TWO_PI))


def group_hilbert(cfg: VerifyConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    dims = [cfg.n + 1] if cfg.n is not None else [4, 9, 16]
    unit = norm_dev = conj_dev = taylor = 0.0
    for dim in dims:
        for _ in range(10):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            g = hilbert.OperatorMatrix(m - m.conj().T)
            u = oracles.expm(g)
            unit = max(unit, np.abs((u @ adjoint(u)).entries - np.eye(dim)).max())
            v = StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim)).normalized()
            norm_dev = max(norm_dev, abs((u @ v).norm() - 1.0))
            w = StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            conj_dev = max(conj_dev, abs(inner(v, w) - np.conj(inner(w, v))))
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = hilbert.OperatorMatrix(m - m.conj().T)
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 60):
            term = term @ g.entries / k
            series += term
        taylor = max(taylor, np.linalg.norm(oracles.expm(g).entries - series))
    checks = [
        _le("expm-unitarity", unit, 1e-10, cfg),
        _le("norm-preservation", norm_dev, 1e-10, cfg),
        _le("inner-conjugate-symmetry", conj_dev, 1e-12, cfg),
        _le("expm-vs-taylor-series", taylor, 1e-12, cfg),
    ]
    return _group("hilbert", checks)


def group_gbs(cfg: VerifyConfig) -> dict:
    """Closed-form overlaps, phase covariance and the orthogonal partner.

    At N = 0 every state is the vacuum |0> and no orthogonal partner
    exists, so the partner-* checks are left out there.
    """
    rng = np.random.default_rng(cfg.seed + 1)
    has_partner = cfg.n != 0
    overlap_dev = ortho = invol = phase_cov = 0.0
    for _ in range(200):
        a = _random_params(rng, n_fixed=cfg.n)
        b = GbsParams(a.N, float(rng.random()), float(rng.random() * TWO_PI))
        closed = gbs.gbs_overlap(a, b)
        direct = inner(gbs.gbs_state(a), gbs.gbs_state(b))
        overlap_dev = max(overlap_dev, abs(closed - direct))
        if has_partner:
            partner = gbs.orthogonal_partner(a)
            ortho = max(ortho, abs(gbs.gbs_overlap(a, partner)))
            back = gbs.orthogonal_partner(partner)
            invol = max(invol, abs(back.p - a.p), gbs.circular_distance(back.phi, a.phi))
        zero_phase = gbs.gbs_state(GbsParams(a.N, a.p, 0.0))
        shifted = zero_phase.amp * np.exp(1j * a.phi * np.arange(a.N + 1))
        phase_cov = max(phase_cov, np.abs(gbs.gbs_state(a).amp - shifted).max())
    checks = [
        _le("closed-form-vs-direct-overlap", overlap_dev, 1e-12, cfg),
        _le("partner-orthogonality", ortho, 1e-12, cfg),
        _le("partner-involution", invol, 1e-12, cfg),
        _le("phase-covariance", phase_cov, 1e-12, cfg),
    ]
    if not has_partner:
        return _group("gbs", [c for c in checks if not c["name"].startswith("partner-")])
    # uniqueness of the orthogonal partner: on a 1e-2 grid over (p', phi'),
    # the overlap only dips to zero inside a 0.05 ball around the partner;
    # outside it the minimum falls like 0.025^N, below 1e-8 from N = 5 on
    a = GbsParams(4, 0.37, 1.1) if cfg.n is None else _random_params(rng, n_fixed=min(cfg.n, 4))
    partner = gbs.orthogonal_partner(a)
    p_grid = np.linspace(0.0, 1.0, 101)
    f_grid = np.arange(0.0, TWO_PI, 0.01)
    pp, ff = np.meshgrid(p_grid, f_grid, indexing="ij")
    total = np.zeros_like(pp, dtype=complex)
    for n in range(a.N + 1):
        mod = (
            math.comb(a.N, n)
            * (a.p * pp) ** (n / 2.0)
            * ((1 - a.p) * (1 - pp)) ** ((a.N - n) / 2.0)
        )
        total += mod * np.exp(1j * n * (ff - a.phi))
    dphi = np.minimum(np.mod(ff - partner.phi, TWO_PI), TWO_PI - np.mod(ff - partner.phi, TWO_PI))
    outside = np.maximum(np.abs(pp - partner.p), dphi) > 0.05
    min_outside = float(np.abs(total[outside]).min())
    checks.append(_ge("partner-uniqueness-grid-min", min_outside, 1e-8))
    return _group("gbs", checks)


def group_rotation(cfg: VerifyConfig) -> dict:
    """Rotated number state, link operator, zero angle, and the eigensolve rotation
    against the dense-expm oracle at polar angles near 0 and pi and one drawn
    from the sphere. link-vs-expm-oracle compares the link operator, composed on
    the spin-1/2 matrices, with the product of two dense-expm rotations, on a
    drawn pair, a coincident pair, an antipodal pair, a pair whose composite
    angle is within 1e-9 of pi, and the two poles p = 0, 1 in both orders."""
    rng = np.random.default_rng(cfg.seed + 2)
    fid_dev = link_dev = 0.0
    for _ in range(100):
        a = _random_params(rng, n_max=30, n_fixed=cfg.n)
        r = hp_algebra.rotation_operator(a.N, hp_algebra.RotationSpec.from_gbs(a))
        fid = abs(inner(gbs.gbs_state(a), r @ basis_state(a.N + 1, a.N))) ** 2
        fid_dev = max(fid_dev, abs(1.0 - fid))
        b = GbsParams(a.N, float(rng.random()), float(rng.random() * TWO_PI))
        t = hp_algebra.link_operator(a.N, a, b)
        link = abs(inner(gbs.gbs_state(b), t @ gbs.gbs_state(a))) ** 2
        link_dev = max(link_dev, abs(1.0 - link))
    n0 = cfg.n if cfg.n is not None else 6
    ident = hp_algebra.rotation_operator(
        n0, hp_algebra.RotationSpec.from_angles(BlochAngles(0.0, 1.3))
    )
    ident_dev = float(np.abs(ident.entries - np.eye(n0 + 1)).max())
    oracle_dev = link_oracle_dev = 0.0
    oracle_ns = [cfg.n] if cfg.n is not None else [1, 2, 5, 30, 64, 200]
    for n in oracle_ns:
        polar = float(np.arccos(rng.uniform(-1, 1)))
        ladder = hp_algebra.hp_operators(n)
        for theta in (1e-9, polar, math.pi - 1e-9, math.pi):
            spec = hp_algebra.RotationSpec.from_angles(BlochAngles(theta, rng.random() * TWO_PI))
            r = hp_algebra.rotation_operator(n, spec).entries
            r_expm = oracles.rotation_expm(ladder, spec.eta).entries
            oracle_dev = max(oracle_dev, float(np.abs(r - r_expm).max()))
    for n in oracle_ns:
        a = _random_params(rng, n_fixed=n)
        b = GbsParams(n, float(rng.random()), float(rng.random() * TWO_PI))
        antipode = GbsParams(n, 1.0 - a.p, a.phi + math.pi)
        # pi - 1e-9 from a along its meridian: the composite angle is that close to pi
        near = GbsParams(
            n, math.sin(gbs.params_to_angles(a).theta / 2.0 + 5e-10) ** 2, a.phi + math.pi
        )
        poles = (GbsParams(n, 0.0, a.phi), GbsParams(n, 1.0, b.phi))
        ladder = hp_algebra.hp_operators(n)
        r_expm = {
            prm: oracles.rotation_expm(ladder, hp_algebra.RotationSpec.from_gbs(prm).eta).entries
            for prm in (a, b, antipode, near, *poles)
        }
        for x, y in ((a, b), (a, a), (a, antipode), (a, near), poles, poles[::-1]):
            t = hp_algebra.link_operator(n, x, y).entries
            link_oracle_dev = max(
                link_oracle_dev, float(np.abs(t - r_expm[y] @ r_expm[x].conj().T).max())
            )
    checks = [
        _le("rotated-number-state-fidelity", fid_dev, 1e-10, cfg),
        _le("link-operator-fidelity", link_dev, 1e-10, cfg),
        _le("zero-angle-rotation-is-identity", ident_dev, 1e-14, cfg),
        _le("rotation-vs-expm-oracle", oracle_dev, 1e-12, cfg),
        _le("link-vs-expm-oracle", link_oracle_dev, 1e-12, cfg),
    ]
    return _group("rotation", checks)


def group_algebra(cfg: VerifyConfig) -> dict:
    """Holstein-Primakoff commutators, Casimir and the rotated operators.

    rotated-eigenvalue-relations covers the state and, for N >= 1, its
    orthogonal partner; at N = 0 there is no partner to test.
    """
    rng = np.random.default_rng(cfg.seed + 3)
    n_values = [cfg.n] if cfg.n is not None else [1, 2, 5, 10, 30]
    comm_raw = comm_rot = eig = casimir = literal = 0.0
    for n in n_values:
        ops = hp_algebra.hp_operators(n)
        comm_raw = max(
            comm_raw,
            _comm_dev(ops.Jplus, ops.Jminus, 2.0 * ops.J3),
            _comm_dev(ops.J3, ops.Jplus, ops.Jplus),
            _comm_dev(ops.J3, ops.Jminus, -1.0 * ops.Jminus),
        )
        casimir = max(
            casimir,
            float(np.abs(ops.Jsq.entries - (n / 2.0) * (n / 2.0 + 1.0) * np.eye(n + 1)).max()),
        )
        for _ in range(20):
            p, phi = float(rng.random()), float(rng.random() * TWO_PI)
            rot = hp_algebra.rotated_operators(n, p, phi)
            comm_rot = max(
                comm_rot,
                _comm_dev(rot.Jplus, rot.Jminus, 2.0 * rot.J3),
                _comm_dev(rot.J3, rot.Jplus, rot.Jplus),
                float(np.abs(hilbert.commutator(rot.Jsq, rot.Jplus).entries).max()),
            )
            prm = GbsParams(n, p, phi)
            state = gbs.gbs_state(prm)
            eig = max(
                eig,
                np.abs((rot.J3 @ state).amp - (n / 2.0) * state.amp).max(),
                np.abs((rot.Jplus @ state).amp).max(),
            )
            if n > 0:
                partner = gbs.gbs_state(gbs.orthogonal_partner(prm))
                eig = max(
                    eig,
                    np.abs((rot.J3 @ partner).amp + (n / 2.0) * partner.amp).max(),
                    np.abs((rot.Jminus @ partner).amp).max(),
                )
            r = hp_algebra.rotation_operator(n, hp_algebra.RotationSpec.from_gbs(prm))
            literal = max(
                literal,
                np.abs((rot.J3 - r @ ops.J3 @ adjoint(r)).entries).max(),
                np.abs((rot.Jplus - r @ ops.Jplus @ adjoint(r)).entries).max(),
            )
    checks = [
        _le("unrotated-commutators", comm_raw, 1e-12, cfg),
        _le("casimir-is-scalar", casimir, 1e-12, cfg),
        _le("rotated-commutators", comm_rot, 1e-10, cfg),
        _le("rotated-eigenvalue-relations", eig, 1e-10, cfg),
        _le("literal-vs-conjugated-rotated-ops", literal, 1e-10, cfg),
    ]
    return _group("algebra", checks)


def _comm_dev(a, b, expected) -> float:
    return float(np.abs(hilbert.commutator(a, b).entries - expected.entries).max())


def group_completeness(cfg: VerifyConfig) -> dict:
    """Resolution of identity, reconstruction and the amplitude function.

    The aliasing probe runs on a deliberately under-resolved grid; the
    UserWarning it raises is recorded, and reported with its text in the
    under-resolved-grid-warned check, instead of being printed.
    """
    rng = np.random.default_rng(cfg.seed + 4)
    n_values = [cfg.n] if cfg.n is not None else list(range(0, 21))
    ident_dev = 0.0
    for n in n_values:
        quad = resolution.SphereQuadrature.default_for(n)
        res = resolution.identity_resolution(n, quad)
        ident_dev = max(ident_dev, float(np.abs(res.entries - np.eye(n + 1)).max()))
    n0 = cfg.n if cfg.n is not None else 9
    quad = resolution.SphereQuadrature.default_for(n0)
    round_trip = lin_dev = amp_dev = 0.0
    for _ in range(50):
        v = rng.normal(size=n0 + 1) + 1j * rng.normal(size=n0 + 1)
        psi = StateVector(v / np.linalg.norm(v))
        rec = resolution.reconstruct(psi, n0, quad)
        round_trip = max(round_trip, float(np.abs(rec.amp - psi.amp).max()))
    u = StateVector(rng.normal(size=n0 + 1) + 1j * rng.normal(size=n0 + 1))
    w = StateVector(rng.normal(size=n0 + 1) + 1j * rng.normal(size=n0 + 1))
    au, bw = 0.3 - 0.4j, 1.1 + 0.2j
    combo = StateVector(au * u.amp + bw * w.amp)
    lin = resolution.reconstruct(combo, n0, quad).amp - (
        au * resolution.reconstruct(u, n0, quad).amp
        + bw * resolution.reconstruct(w, n0, quad).amp
    )
    lin_dev = float(np.abs(lin).max())
    for _ in range(30):
        prm = _random_params(rng, n_max=20, n_fixed=cfg.n)
        v = rng.normal(size=prm.N + 1) + 1j * rng.normal(size=prm.N + 1)
        psi = StateVector(v / np.linalg.norm(v))
        # both routes scaled by p^(N/2): A itself overflows a double at large N
        overlap, series = resolution._scaled_amplitude_routes(psi, prm)
        amp_dev = max(amp_dev, abs(overlap - series) / max(abs(overlap), 1e-300))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aliased = resolution.identity_resolution(3, resolution.SphereQuadrature.build(4, 2))
    alias_dev = float(np.abs(aliased.entries - np.eye(4)).max())
    grid_warnings = [str(w.message) for w in caught if "under-resolved" in str(w.message)]
    checks = [
        _le("identity-resolution-exactness", ident_dev, 1e-12, cfg),
        _le("reconstruction-round-trip", round_trip, 1e-10, cfg),
        _le("reconstruction-linearity", lin_dev, 1e-10, cfg),
        _le("amplitude-overlap-vs-series", amp_dev, 1e-10, cfg),
        _ge("aliasing-contamination-under-resolved", alias_dev, 1e-3),
        _ge("under-resolved-grid-warned", len(grid_warnings), 1) | {"warnings": grid_warnings},
    ]
    return _group("completeness", checks)


def group_delta(cfg: VerifyConfig) -> dict:
    """The Delta ladder: orthonormality, eigenvalues, ends and completeness.

    endpoint-states-fidelity compares the top rung with the state and, for
    N >= 1, the bottom rung with its orthogonal partner; at N = 0 the
    ladder is the vacuum alone. closed-form-vs-recursion compares the
    single-vector solve of delta_state with the full solve of delta_basis.
    rotation-columns-match compares the ladder with the columns of the
    dense-expm rotation, not with rotation_operator, which shares its solve.
    """
    rng = np.random.default_rng(cfg.seed + 5)
    n_values = [cfg.n] if cfg.n is not None else [1, 2, 3, 5, 8, 13, 21, 30, 100, 200]
    ortho = eig = ends = closed = complete = columns = 0.0
    for n in n_values:
        p, phi = float(rng.uniform(0.05, 0.95)), float(rng.random() * TWO_PI)
        basis = delta_basis(n, p, phi)
        vecs = np.array([s.amp for s in basis.states]).T  # column m is rung m
        ortho = max(ortho, float(np.abs(vecs.conj().T @ vecs - np.eye(n + 1)).max()))
        j3p = hp_algebra.rotated_operators(n, p, phi).J3.entries
        eig = max(eig, float(np.abs(j3p @ vecs - vecs * (np.arange(n + 1) - n / 2.0)).max()))
        prm = GbsParams(n, p, phi)
        ends = max(ends, abs(1.0 - abs(inner(basis.states[n], gbs.gbs_state(prm))) ** 2))
        if n > 0:
            partner = gbs.gbs_state(gbs.orthogonal_partner(prm))
            ends = max(ends, abs(1.0 - abs(inner(basis.states[0], partner)) ** 2))
        m_probe = int(rng.integers(0, n + 1))
        single = delta_state(n, m_probe, p, phi)
        closed = max(closed, abs(1.0 - abs(inner(single, basis.states[m_probe]))))
        complete = max(complete, float(np.abs(vecs @ vecs.conj().T - np.eye(n + 1)).max()))
        eta = hp_algebra.RotationSpec.from_gbs(prm).eta
        r = oracles.rotation_expm(hp_algebra.hp_operators(n), eta).entries
        overlaps = np.abs(np.sum(vecs.conj() * r, axis=0))  # |<Delta_m| R |m>|
        columns = max(columns, float(np.abs(1.0 - overlaps).max()))
    middle = 0.0
    for _ in range(20):
        p, phi = float(rng.uniform(0.01, 0.99)), float(rng.random() * TWO_PI)
        mid = delta_basis(2, p, phi).states[1]
        target = np.array(
            [
                math.sqrt(2.0 * p * (1.0 - p)),
                (2.0 * p - 1.0) * np.exp(1j * phi),
                -math.sqrt(2.0 * p * (1.0 - p)) * np.exp(2j * phi),
            ]
        )
        middle = max(middle, float(np.abs(mid.amp - target).max()))
    checks = [
        _le("pairwise-orthonormality", ortho, 1e-10, cfg),
        _le("ladder-eigenvalues", eig, 1e-9, cfg),
        _le("endpoint-states-fidelity", ends, 1e-10, cfg),
        _le("closed-form-vs-recursion", closed, 1e-10, cfg),
        _le("basis-completeness", complete, 1e-10, cfg),
        _le("rotation-columns-match", columns, 1e-10, cfg),
        _le("n2-middle-state-closed-form", middle, 1e-12, cfg),
    ]
    return _group("delta", checks)


def _phi_support(n: int, phi_grid: np.ndarray, p_grid: np.ndarray) -> np.ndarray:
    """Cells of phi_grid where S_X > 0 for some p in p_grid."""
    rows = squeezing.squeeze_scan(n, p_grid, phi_grid)
    s_x = np.array([row.S_X for row in rows]).reshape(len(p_grid), len(phi_grid))
    return s_x.max(axis=0) > 0.0


def group_squeezing(cfg: VerifyConfig) -> dict:
    n_values = [cfg.n] if cfg.n is not None else [1, 2, 5, 20, 100]
    agree = ends = dual = symmetry = exclusive = 0.0
    uncert = np.inf
    for n in n_values:
        for p in np.linspace(0.0, 1.0, 21):
            for phi in np.linspace(0.0, TWO_PI, 21):
                s_x, s_p = squeezing.closed_form_indexes(n, float(p), float(phi))
                stats = squeezing.direct_stats(
                    gbs.gbs_state(GbsParams(n, float(p), float(phi)), dim=n + 3)
                )
                agree = max(agree, abs(s_x - stats.S_X), abs(s_p - stats.S_P))
                dual_x, _ = squeezing.closed_form_indexes(n, float(p), float(phi) + math.pi / 2.0)
                dual = max(dual, abs(s_p - dual_x))
                shift_x, shift_p = squeezing.closed_form_indexes(n, float(p), float(phi) + math.pi)
                symmetry = max(symmetry, abs(s_x - shift_x), abs(s_p - shift_p))
                exclusive = max(exclusive, min(s_x, s_p))
                uncert = min(uncert, stats.var_X * stats.var_P)
        ex0 = squeezing.closed_form_indexes(n, 0.0, 0.3)
        ex1 = squeezing.closed_form_indexes(n, 1.0, 0.3)
        ends = max(ends, abs(ex0[0]), abs(ex0[1]), abs(ex1[0] + 2.0 * n), abs(ex1[1] + 2.0 * n))
    phi_grid = np.arange(128) * (math.pi / 64.0)
    p_grid = np.linspace(0.0, 1.0, 201)
    support_small = _phi_support(2, phi_grid, p_grid)
    support_large = _phi_support(100, phi_grid, p_grid)
    mismatch = _support_mismatch(support_small, support_large)
    max_small = _max_grid_sx(2)
    max_large = _max_grid_sx(100)
    checks = [
        _le("closed-form-vs-direct-grid", agree, 1e-10, cfg),
        _le("vacuum-and-number-endpoints", ends, 1e-12, cfg),
        _le("x-p-duality-quarter-turn", dual, 1e-12, cfg),
        _le("phi-plus-pi-symmetry", symmetry, 1e-12, cfg),
        _le("never-both-quadratures-squeezed", exclusive, 1e-12, cfg),
        _ge("uncertainty-product-floor", uncert, 1.0 - 1e-9),
        _ge("n2-squeezing-exists", max_small, 1e-12),
        _ge("n100-exceeds-n2", max_large - max_small, 0.0),
        _le("phi-support-match-cells", mismatch, 0.0, cfg),
    ]
    return _group("squeezing", checks)


def _max_grid_sx(n: int) -> float:
    best = -np.inf
    for p in np.linspace(0.0, 1.0, 21):
        for phi in np.linspace(0.0, TWO_PI, 21):
            best = max(best, squeezing.closed_form_indexes(n, float(p), float(phi))[0])
    return float(best)


def _support_mismatch(a: np.ndarray, b: np.ndarray) -> int:
    """Cells where the supports disagree even after dilating each by one cell."""

    def dilate(x):
        return x | np.roll(x, 1) | np.roll(x, -1)

    return int(np.sum((a & ~dilate(b)) | (b & ~dilate(a))))


def group_bijection(cfg: VerifyConfig) -> dict:
    """GBS <-> CAS coefficients, the 2^N tensor-space oracle, dual generation.

    The tensor oracle and the dual generation run on 1..8 atoms. At N = 0
    there is no atom, so both are left out and only the coefficient map
    (the vacuum against the J = 0 state) is checked.
    """
    rng = np.random.default_rng(cfg.seed + 6)
    n_values = [min(cfg.n, 12)] if cfg.n is not None else list(range(1, 13))
    coeff_dev = 0.0
    for n in n_values:
        for _ in range(5):
            prm = _random_params(rng, n_fixed=n)
            angles = gbs.params_to_angles(prm)
            state = cas.cas_state(cas.CasParams(n / 2.0, angles))
            coeff_dev = max(coeff_dev, float(np.abs(state.amp - gbs.gbs_state(prm).amp).max()))
    coeff_check = _le("gbs-cas-coefficient-match", coeff_dev, 1e-12, cfg)
    if cfg.n == 0:
        return _group("bijection", [coeff_check])
    tensor_dev = dual_dev = 0.0
    for n_atoms in range(1, 9):
        space = oracles.tensor_atom_space(n_atoms)
        dicke = oracles.dicke_states_tensor(n_atoms)
        angles = _random_angles(rng)
        xi = (angles.theta / 2.0) * np.exp(-1j * angles.varphi)
        r_tensor = oracles.rotation_expm(space, xi)
        rotated = (r_tensor @ dicke[-1]).amp
        coeffs = np.array([np.vdot(d.amp, rotated) for d in dicke])
        block_col = cas.rotation_operator_spin(n_atoms / 2.0, angles).entries[:, -1]
        tensor_dev = max(tensor_dev, float(np.abs(coeffs - block_col).max()))
        fid = abs(np.vdot(cas.cas_state(cas.CasParams(n_atoms / 2.0, angles)).amp, coeffs)) ** 2
        tensor_dev = max(tensor_dev, abs(1.0 - fid))
        # dual generation: rotate the ground Dicke state by pi - theta about
        # the antiparallel axis and land on the same CAS up to a phase
        anti = BlochAngles(math.pi - angles.theta, angles.varphi + math.pi)
        r_dual = cas.rotation_operator_spin(n_atoms / 2.0, anti)
        dual_state = r_dual.entries[:, 0]
        fid_dual = abs(np.vdot(cas.cas_state(cas.CasParams(n_atoms / 2.0, angles)).amp, dual_state)) ** 2
        dual_dev = max(dual_dev, abs(1.0 - fid_dual))
    checks = [
        coeff_check,
        _le("tensor-product-oracle", tensor_dev, 1e-12, cfg),
        _le("dual-generation-from-ground", dual_dev, 1e-10, cfg),
    ]
    return _group("bijection", checks)


def group_appendix(cfg: VerifyConfig) -> dict:
    rng = np.random.default_rng(cfg.seed + 7)
    pauli_dev = float(
        np.abs(cas.spin_j_operators(0.5).Jz.entries - np.diag([-0.5, 0.5])).max()
    )
    comm_dev = casimir_dev = 0.0
    for two_j in (1, 2, 3, 7):
        ops = cas.spin_j_operators(two_j / 2.0)
        comm_dev = max(
            comm_dev,
            _comm_dev(ops.Jplus, ops.Jminus, 2.0 * ops.Jz),
            _comm_dev(ops.Jz, ops.Jplus, ops.Jplus),
        )
        j = two_j / 2.0
        casimir_dev = max(
            casimir_dev,
            float(np.abs(ops.Jsq.entries - j * (j + 1.0) * np.eye(two_j + 1)).max()),
        )
    space = oracles.tensor_atom_space(4)
    comm_dev = max(
        comm_dev,
        _comm_dev(space.Jplus, space.Jminus, 2.0 * space.Jz),
        float(np.abs(hilbert.commutator(space.Jz, space.Jsq).entries).max()),
    )
    dicke = oracles.dicke_states_tensor(5)
    gram = np.array([[inner(a, b) for b in dicke] for a in dicke])
    dicke_dev = float(np.abs(gram - np.eye(6)).max())
    disent = 0.0
    for _ in range(60):
        two_j = int(rng.integers(1, 11))
        angles = BlochAngles(float(rng.random() * 3.0), float(rng.random() * TWO_PI))
        disent = max(
            disent,
            float(
                np.linalg.norm(
                    oracles.disentangled_rotation(two_j / 2.0, angles).entries
                    - cas.rotation_operator_spin(two_j / 2.0, angles).entries
                )
            ),
        )
    law = antipodal = 0.0
    for _ in range(200):
        two_j = int(rng.integers(1, 13))
        a, b = _random_angles(rng), _random_angles(rng)
        direct = abs(
            inner(cas.cas_state(cas.CasParams(two_j / 2.0, a)), cas.cas_state(cas.CasParams(two_j / 2.0, b)))
        ) ** 2
        law = max(law, abs(direct - cas.cas_overlap_modulus_sq(two_j / 2.0, a, b)))
        anti = BlochAngles(math.pi - a.theta, a.varphi + math.pi)
        antipodal = max(
            antipodal,
            abs(inner(cas.cas_state(cas.CasParams(two_j / 2.0, a)), cas.cas_state(cas.CasParams(two_j / 2.0, anti)))),
        )
    rot_eig = conj_dev = 0.0
    for _ in range(30):
        two_j = int(rng.integers(1, 11))
        angles = _random_angles(rng)
        j = two_j / 2.0
        rotated = cas.rotated_cas_operators(j, angles)
        state = cas.cas_state(cas.CasParams(j, angles))
        rot_eig = max(
            rot_eig,
            float(np.abs((rotated.Jz @ state).amp - j * state.amp).max()),
            float(np.abs((rotated.Jplus @ state).amp).max()),
        )
        r = cas.rotation_operator_spin(j, angles)
        raw = cas.spin_j_operators(j)
        conj_dev = max(
            conj_dev,
            float(np.abs((rotated.Jz - r @ raw.Jz @ adjoint(r)).entries).max()),
            float(np.abs((rotated.Jplus - r @ raw.Jplus @ adjoint(r)).entries).max()),
        )
    two_j0 = cfg.n if cfg.n is not None else 7
    quad = resolution.SphereQuadrature.default_for(two_j0)
    cas_ident = float(
        np.abs(cas.cas_identity_resolution(two_j0 / 2.0, quad).entries - np.eye(two_j0 + 1)).max()
    )
    v = rng.normal(size=two_j0 + 1) + 1j * rng.normal(size=two_j0 + 1)
    psi = StateVector(v / np.linalg.norm(v))
    cas_rec = cas.cas_expansion_check(two_j0 / 2.0, psi, quad)
    gbs_rec = resolution.reconstruct(psi, two_j0, quad)
    rec_dev = float(np.abs(cas_rec.amp - psi.amp).max())
    cross_dev = float(np.abs(cas_rec.amp - gbs_rec.amp).max())
    comp_res = 0.0
    for _ in range(10):
        a, b = _random_angles(rng), _random_angles(rng)
        comp_res = max(comp_res, hp_algebra.composition_residual(two_j0, a, b))
    checks = [
        _le("spin-half-is-pauli-over-two", pauli_dev, 1e-15, cfg),
        _le("collective-commutation-rules", comm_dev, 1e-12, cfg),
        _le("casimir-on-irreducible-block", casimir_dev, 1e-12, cfg),
        _le("dicke-tensor-orthonormality", dicke_dev, 1e-12, cfg),
        _le("disentangling-theorem", disent, 1e-9, cfg),
        _le("overlap-law-great-circle", law, 1e-10, cfg),
        _le("antipodal-orthogonality", antipodal, 1e-12, cfg),
        _le("rotated-cas-eigenrelations", rot_eig, 1e-10, cfg),
        _le("rotated-cas-vs-conjugation", conj_dev, 1e-10, cfg),
        _le("cas-identity-resolution", cas_ident, 1e-12, cfg),
        _le("cas-reconstruction-round-trip", rec_dev, 1e-10, cfg),
        _le("cas-vs-gbs-reconstruction", cross_dev, 1e-10, cfg),
        _le("composition-law-residual", comp_res, math.inf, cfg, diagnostic=True),
    ]
    return _group("appendix", checks)


def group_coherent(cfg: VerifyConfig) -> dict:
    fids = []
    for n in (10, 50, 200):
        dim = max(n + 1, 31)
        alpha = gbs.coherent_state_truncated(1.0, dim)
        state = gbs.gbs_state(GbsParams(n, 1.0 / n, 0.0), dim=dim)
        fids.append(abs(inner(alpha, state)) ** 2)
    checks = [
        _ge("coherent-limit-fidelity-n200", fids[2], 0.99),
        _ge("coherent-limit-monotone", min(fids[1] - fids[0], fids[2] - fids[1]), 0.0),
    ]
    return _group("coherent", checks)


def _group(name: str, checks: list[dict]) -> dict:
    return {"name": name, "passed": all(c["passed"] for c in checks), "checks": checks}


GROUPS = {
    "hilbert": group_hilbert,
    "gbs": group_gbs,
    "rotation": group_rotation,
    "algebra": group_algebra,
    "completeness": group_completeness,
    "delta": group_delta,
    "squeezing": group_squeezing,
    "bijection": group_bijection,
    "appendix": group_appendix,
    "coherent": group_coherent,
}


def run_verification(cfg: VerifyConfig) -> dict:
    tol = cfg.tolerance
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    names = cfg.groups if cfg.groups else tuple(GROUPS)
    unknown = [g for g in names if g not in GROUPS]
    if unknown:
        raise ValueError(f"unknown verification groups: {', '.join(unknown)}")
    if cfg.n is not None and cfg.n < 0:
        raise ValueError(f"N must be a non-negative integer, got {cfg.n}")
    groups = []
    for name in names:
        start = time.perf_counter()
        group = GROUPS[name](cfg)
        if cfg.timings:
            group["seconds"] = time.perf_counter() - start
        groups.append(group)
    return {
        "tolerance": cfg.tolerance,
        "seed": cfg.seed,
        "n": cfg.n,
        "groups": groups,
        "all_passed": all(g["passed"] for g in groups),
    }
