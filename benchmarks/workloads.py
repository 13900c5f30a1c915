"""Workloads, output checks and the call recorder run by worker.py.

Every call's check uses the bound the package itself states in
``gbstates.verify``; misses are counted, never skipped. A miss at a
(function, N) listed in KNOWN_DEFECTS, up to its ceiling, is counted as a
documented defect, not as a failed operation, and does not make the run
incorrect. A new defect, or a documented one that grows, is a failed
operation and makes the run incorrect.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
import traceback

import numpy as np

import gbstates
from gbstates import cas, cli, gbs, hp_algebra, resolution, squeezing

# the package re-exports the function delta_basis under the module's name
delta_basis = importlib.import_module("gbstates.delta_basis")

EPS = np.finfo(float).eps

# Matrix workloads: sizes are capped for an 8 GB, 2-vCPU box (see README).
SWEEP_N = (64, 192)
LADDER_N = (16, 32, 64, 128, 256, 512)
LADDER_RESOLUTION_MAX_N = 256
VECTOR_N = (1_000, 10_000, 100_000)
SCAN_N = 10_000
SCAN_SHAPE = (51, 65)
INPUT_POOL = 512

# layer.function -> (reason, {N: ceiling}). A miss at a listed N up to its
# ceiling, about ten times the worst value measured over six sets of ten
# seeds per workload, is the documented defect. A miss at any other N or
# above the ceiling is unexpected.
KNOWN_DEFECTS = {
    "gbs.gbs_overlap": (
        "log_binomial's lgamma differences lose about N eps: error 1.2e-11 at N=1e4, "
        "1.45e-10 at N=1e5 against 1e-12 (within bound at N=1e3)",
        {10_000: 1.2e-10, 100_000: 1.5e-9},
    ),
    "delta_basis.delta_basis": (
        "raising recursion loses orthonormality exponentially in N "
        "(Gram error 3.4e-7 at N=129, 3.2e-3 at 192, 0.99 at 257 and 513)",
        {129: 3.4e-6, 192: 3.2e-2, 257: 10.0, 513: 10.0},
    ),
    "delta_basis.delta_state": (
        "same recursion; J3' eigen-residual 2.7e-6 at N=130, 26 at 258, 47 at 514",
        {130: 2.2e-5, 258: 260.0, 514: 470.0},
    ),
    "resolution.identity_resolution": (
        "quadrature roundoff: max |res - I| is 1.35e-12 at N=256 against 1e-12",
        {256: 1.35e-11},
    ),
    "squeezing.closed_form_indexes": (
        "closed-form cross sums cancel about N^2 eps: 4.0e-9 at N=1e3, 4.7e-7 at 1e4, "
        "5.1e-5 at 1e5 against max(1e-10, 32 eps N)",
        {1_000: 4e-8, 10_000: 4.7e-6, 100_000: 5e-4},
    ),
    "squeezing.squeeze_scan": (
        "evaluates the same closed form: 5.2e-7 at N=1e4",
        {10_000: 5.2e-6},
    ),
}


def squeeze_bound(N: int) -> float:
    """Bound for squeezing indexes against the O(N) moment reference.

    1e-10 is verify's closed-form-vs-direct bound. Above N ~ 7000 it widens
    to 32 eps N, because the reference itself cancels O(N) moments: against
    a 50-digit mpmath evaluation its error was <= 8e-16 N at N <= 3e4.
    """
    return max(1e-10, 32.0 * EPS * N)


class Recorder:
    """Times calls, checks their outputs outside the timed span, keeps spans.

    Without tracing only latencies and failures are kept. With tracing every
    call is also a span (name, N, start, end, ok), held in memory and
    returned with the result.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.latencies: list[float] = []
        self.failures: dict[tuple[str, int], dict] = {}
        self.errors = 0
        self.spans: list[dict] = []

    def timed(self, name: str, N: int, call, check):
        """Time call(); then, untimed, check(result) -> (value, bound)."""
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # a raising call is a failed operation; the run goes on
            t1 = time.perf_counter()
            self._fail(name, N, math.inf, 0.0, traceback.format_exc(limit=-2))
            self._finish(name, N, t0, t1, False)
            return
        t1 = time.perf_counter()
        try:
            value, bound = check(out)
            error = None
        except Exception:  # an output the check cannot read is a failed call
            value, bound, error = math.inf, 0.0, "check: " + traceback.format_exc(limit=-2)
        ok = bool(value <= bound)  # NaN fails
        if not ok:
            self._fail(name, N, value, bound, error)
        self._finish(name, N, t0, t1, ok)

    def _finish(self, name, N, t0, t1, ok):
        self.latencies.append(t1 - t0)
        if self.trace:
            self.spans.append({"name": name, "N": N, "t0": t0, "t1": t1, "ok": ok})

    def _fail(self, name, N, value, bound, error):
        if error is not None:
            self.errors += 1
        entry = self.failures.setdefault(
            (name, N), {"name": name, "N": N, "count": 0, "worst": 0.0, "bound": bound}
        )
        entry["count"] += 1
        if not value <= entry["worst"]:  # also keeps a NaN
            entry["worst"] = float(value)
        if error is not None:
            entry["error"] = error
        reason, ceilings = KNOWN_DEFECTS.get(name, (None, {}))
        known = error is None and bool(value <= ceilings.get(N, -math.inf))  # NaN is not
        entry["known"] = entry.get("known", True) and known
        if entry["known"]:
            entry["reason"] = reason
            entry["ceiling"] = ceilings[N]

    def result(self) -> dict:
        return {
            "latencies": self.latencies,
            "failures": list(self.failures.values()),
            "errors": self.errors,
            "spans": self.spans,
        }


# ---------------------------------------------------------------- references


def binomial_pmf(N: int, p: float) -> np.ndarray:
    """Binomial pmf by products of successive ratios out from the mode.

    Independent of gbstates.gbs, which uses lgamma differences. The relative
    error grows like |k - mode| eps; the amplitudes sqrt(pmf) agree with
    scipy.stats.binom.pmf to 2e-15 at N <= 1e5.
    """
    w = np.zeros(N + 1)
    if p <= 0.0 or p >= 1.0:
        w[0 if p <= 0.0 else N] = 1.0
        return w
    mode = min(int((N + 1) * p), N)
    k = np.arange(1, N + 1, dtype=float)
    odds = p / (1.0 - p)
    w[mode] = 1.0
    # w[k] / w[k-1] = (N - k + 1) / k * odds
    w[mode + 1:] = np.cumprod((N - k[mode:] + 1.0) / k[mode:] * odds)
    w[:mode] = np.cumprod((k[:mode] / (N - k[:mode] + 1.0) / odds)[::-1])[::-1]
    return w / w.sum()


def reference_state(N: int, p: float, phi: float) -> np.ndarray:
    """|N,p,phi> from binomial_pmf."""
    amp = np.sqrt(binomial_pmf(N, p)) * np.exp(1j * phi * np.arange(N + 1))
    return amp / np.linalg.norm(amp)


def reference_moments(N: int, p: float) -> tuple[float, float, float]:
    """<n>, A1, A2 of |N,p,0> by O(N) shifted products of its amplitudes.

    For |N,p,phi>, <a> = e^(i phi) A1 and <a^2> = e^(2 i phi) A2.
    """
    w = binomial_pmf(N, p)
    c = np.sqrt(w)
    n = np.arange(N + 1, dtype=float)
    a1 = float(np.dot(c[:-1] * c[1:], np.sqrt(n[1:])))
    a2 = float(np.dot(c[:-2] * c[2:], np.sqrt(n[1:-1] * n[2:])))
    return float(np.dot(n, w)), a1, a2


def reference_indexes(moments, phi):
    """(S_X, S_P) from reference moments; phi may be an array."""
    nn, a1, a2 = moments
    cos2 = np.cos(2.0 * phi)
    s_x = -2.0 * nn - 2.0 * a2 * cos2 + 4.0 * (a1 * np.cos(phi)) ** 2
    s_p = -2.0 * nn + 2.0 * a2 * cos2 + 4.0 * (a1 * np.sin(phi)) ** 2
    return s_x, s_p


def _fidelity_dev(u: np.ndarray, v: np.ndarray) -> float:
    return abs(1.0 - abs(np.vdot(u, v)) ** 2)


def _ladder_residual(N: int, p: float, phi: float, m: int, s: np.ndarray) -> float:
    """max |J3' s - (m - N/2) s| with J3' applied as a tridiagonal, O(N)."""
    k = np.arange(N)
    off = math.sqrt(p * (1.0 - p)) * np.sqrt((N - k) * (k + 1.0))
    j3s = (2.0 * p - 1.0) * (np.arange(N + 1) - N / 2.0) * s
    j3s[1:] += off * np.exp(1j * phi) * s[:-1]
    j3s[:-1] += off * np.exp(-1j * phi) * s[1:]
    return float(np.abs(j3s - (m - N / 2.0) * s).max())


def _gram_dev(states) -> float:
    mat = np.array([s.amp for s in states])
    return float(np.abs(mat.conj() @ mat.T - np.eye(len(states))).max())


# ----------------------------------------------------------------- workloads


# additive-recurrence steps: fractional parts of square roots of primes
WEYL_STEPS = np.sqrt([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]) % 1.0


def even_points(seed: int, start: int, count: int, dims: int) -> np.ndarray:
    """Points start..start+count-1 of an additive recurrence in [0, 1)^dims.

    The offset comes from the seed. Any run of consecutive points covers the
    cube evenly, so the cost mix of a run (expm work depends on the polar
    angle) does not depend on which seed or how many draws it got.
    """
    offset = np.random.default_rng(seed).random(dims)
    k = np.arange(start, start + count)[:, None]
    return (offset + k * WEYL_STEPS[:dims]) % 1.0


def _random_state(rng, dim: int) -> gbstates.StateVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return gbstates.StateVector(v / np.linalg.norm(v))


def setup_matrix_sweep(seed: int, index: int):
    quads = {N: resolution.SphereQuadrature.default_for(N) for N in SWEEP_N}
    rng = np.random.default_rng([seed, index])
    points = even_points(seed, index * INPUT_POOL, INPUT_POOL, 4)
    draws = [
        {
            "ab": x[:2],
            "phis": 2.0 * math.pi * x[2:],
            "psi": {N: _random_state(rng, N + 1) for N in SWEEP_N},
        }
        for x in points
    ]
    return quads, draws


def run_matrix_sweep(rec: Recorder, state, deadline: float):
    """Draws of (p, phi) at fixed N: every call repeats an N."""
    quads, draws = state
    i = 0
    while time.perf_counter() < deadline:
        d = draws[i % len(draws)]
        for N in SWEEP_N:
            a = gbstates.GbsParams(N, d["ab"][0], d["phis"][0])
            b = gbstates.GbsParams(N, d["ab"][1], d["phis"][1])
            _sweep_draw(rec, N, a, b, d["psi"][N], quads[N], i % 2 == 0)
        i += 1


def _sweep_draw(rec, N, a, b, psi, quad, even):
    ga, gb = gbs.gbs_state(a).amp, gbs.gbs_state(b).amp
    for prm, target in ((a, ga), (b, gb)):
        spec = hp_algebra.RotationSpec.from_gbs(prm)
        rec.timed("hp_algebra.rotation_operator", N,
                  lambda: hp_algebra.rotation_operator(N, spec),
                  lambda r: (_fidelity_dev(target, r.entries[:, N]), 1e-10))
    for x, y, gx, gy in ((a, b, ga, gb), (b, a, gb, ga)):
        rec.timed("hp_algebra.link_operator", N,
                  lambda: hp_algebra.link_operator(N, x, y),
                  lambda t: (_fidelity_dev(gy, t.entries @ gx), 1e-10))
    for prm, target in ((a, ga), (b, gb)):
        angles = gbs.params_to_angles(prm)
        rec.timed("cas.rotation_operator_spin", N,
                  lambda: cas.rotation_operator_spin(N / 2.0, angles),
                  lambda r: (_fidelity_dev(target, r.entries[:, N]), 1e-10))

    def eigen_check(ops):
        top = ops.J3.entries @ ga - (N / 2.0) * ga
        return max(np.abs(top).max(), np.abs(ops.Jplus.entries @ ga).max()), 1e-10

    rec.timed("hp_algebra.rotated_operators", N,
              lambda: hp_algebra.rotated_operators(N, a.p, a.phi), eigen_check)
    rec.timed("delta_basis.delta_basis", N,
              lambda: delta_basis.delta_basis(N, a.p, a.phi),
              lambda basis: (_gram_dev(basis.states), 1e-10))
    for prm in (a, b):
        padded = gbs.gbs_state(prm, dim=N + 3)
        ref = reference_indexes(reference_moments(N, prm.p), prm.phi)
        rec.timed("squeezing.direct_stats", N, lambda: squeezing.direct_stats(padded),
                  lambda st: (max(abs(st.S_X - ref[0]), abs(st.S_P - ref[1])), 1e-10))

    def round_trip(out):
        return float(np.abs(out.amp - psi.amp).max()), 1e-10

    # the two resolution calls alternate so that the rotation family and the
    # resolution family each carry about half of the busy time
    if even:
        rec.timed("resolution.reconstruct", N,
                  lambda: resolution.reconstruct(psi, N, quad), round_trip)
    else:
        rec.timed("cas.cas_expansion_check", N,
                  lambda: cas.cas_expansion_check(N / 2.0, psi, quad), round_trip)


def setup_matrix_ladder(seed: int, index: int):
    quads = {
        N: resolution.SphereQuadrature.default_for(N)
        for N in LADDER_N
        if N <= LADDER_RESOLUTION_MAX_N
    }
    x = even_points(seed, index, 1, 2 * len(LADDER_N))[0].reshape(len(LADDER_N), 2)
    inputs = [(N, p, 2.0 * math.pi * phi) for N, (p, phi) in zip(LADDER_N, x)]
    return quads, inputs


def run_matrix_ladder(rec: Recorder, state, deadline: float):
    """One pass over the N ladder; run.py gives each pass a fresh process.

    rotation_operator, delta_basis and delta_state get N, N+1 and N+2, so no
    two of them share an N and a per-N cache is cold for every call.
    """
    quads, inputs = state
    for N, p, phi in inputs:
        a = gbstates.GbsParams(N, p, phi)
        spec = hp_algebra.RotationSpec.from_gbs(a)
        target = gbs.gbs_state(a).amp
        rec.timed("hp_algebra.rotation_operator", N,
                  lambda: hp_algebra.rotation_operator(N, spec),
                  lambda r: (_fidelity_dev(target, r.entries[:, N]), 1e-10))
        rec.timed("delta_basis.delta_basis", N + 1,
                  lambda: delta_basis.delta_basis(N + 1, p, phi),
                  lambda basis: (_gram_dev(basis.states), 1e-10))
        n2, m = N + 2, (N + 2) // 2  # the middle rung: its cost does not vary with the seed
        rec.timed("delta_basis.delta_state", n2,
                  lambda: delta_basis.delta_state(n2, m, p, phi),
                  lambda s: (_ladder_residual(n2, p, phi, m, s.amp), 1e-9))
        if N in quads:
            rec.timed("resolution.identity_resolution", N,
                      lambda: resolution.identity_resolution(N, quads[N]),
                      lambda res: (float(np.abs(res.entries - np.eye(N + 1)).max()), 1e-12))


def setup_vector_ladder(seed: int, index: int):
    passes = []
    for x in even_points(seed, index * INPUT_POOL, INPUT_POOL, 4 * len(VECTOR_N) + 3):
        per_n = []
        for N, (u_p, u_phi, u_dp, u_dphi) in zip(VECTOR_N, x[:-3].reshape(-1, 4)):
            p = 0.02 + 0.96 * u_p
            phi = 2.0 * math.pi * u_phi
            # a neighbour within a few standard deviations, so the overlap is
            # O(1) and its check bites at every N
            width = 1.0 / math.sqrt(N)
            p2 = min(max(p + (2.0 * u_dp - 1.0) * width, 0.0), 1.0)
            phi2 = phi + (2.0 * u_dphi - 1.0) * width
            per_n.append((N, p, phi, p2, phi2))
        u_lo, u_hi, u_shift = x[-3:]
        lo, hi = 0.1 * u_lo, 0.9 + 0.1 * u_hi
        shift = u_shift * 2.0 * math.pi / (SCAN_SHAPE[1] - 1)
        grids = (
            np.linspace(lo, hi, SCAN_SHAPE[0]),
            np.linspace(0.0, 2.0 * math.pi, SCAN_SHAPE[1]) + shift,
        )
        passes.append((per_n, grids))
    return passes


def run_vector_ladder(rec: Recorder, passes, deadline: float):
    """O(N) paths: states, overlaps and closed-form squeezing up to N = 1e5."""
    i = 0
    while time.perf_counter() < deadline:
        per_n, (p_grid, phi_grid) = passes[i % len(passes)]
        for N, p, phi, p2, phi2 in per_n:
            a, b = gbstates.GbsParams(N, p, phi), gbstates.GbsParams(N, p2, phi2)
            ref_a = reference_state(N, p, phi)
            rec.timed("gbs.gbs_state", N, lambda: gbs.gbs_state(a),
                      lambda s: (_fidelity_dev(ref_a, s.amp), 1e-12))
            ref_ab = np.vdot(ref_a, reference_state(N, b.p, b.phi))
            rec.timed("gbs.gbs_overlap", N, lambda: gbs.gbs_overlap(a, b),
                      lambda z: (abs(z - ref_ab), 1e-12))
            partner = gbs.orthogonal_partner(a)
            rec.timed("gbs.gbs_overlap", N, lambda: gbs.gbs_overlap(a, partner),
                      lambda z: (abs(z), 1e-12))
            ref_s = reference_indexes(reference_moments(N, p), a.phi)
            rec.timed("squeezing.closed_form_indexes", N,
                      lambda: squeezing.closed_form_indexes(N, p, a.phi),
                      lambda s: (max(abs(s[0] - ref_s[0]), abs(s[1] - ref_s[1])),
                                 squeeze_bound(N)))

        def scan_check(rows):
            p_vals = np.array([r.p for r in rows]).reshape(SCAN_SHAPE)
            phi_vals = np.array([r.phi for r in rows]).reshape(SCAN_SHAPE)
            worst = 0.0
            for j, p in enumerate(p_vals[:, 0]):
                s_x, s_p = reference_indexes(reference_moments(SCAN_N, p), phi_vals[j])
                got = np.array([(r.S_X, r.S_P) for r in rows[j * SCAN_SHAPE[1]:(j + 1) * SCAN_SHAPE[1]]])
                worst = max(worst, np.abs(got[:, 0] - s_x).max(), np.abs(got[:, 1] - s_p).max())
            return float(worst), squeeze_bound(SCAN_N)

        rec.timed("squeezing.squeeze_scan", SCAN_N,
                  lambda: squeezing.squeeze_scan(SCAN_N, p_grid, phi_grid), scan_check)
        i += 1


def cli_references(out_dir: str, prerequisite: list[str], invocations: list[list[str]]) -> list[int]:
    """Write each invocation's expected bytes by running gbstates.cli.main in-process.

    The prerequisite writes the state file that `expand` reads.
    """
    if cli.main(prerequisite) != 0:
        sys.exit(f"set-up invocation failed: {prerequisite}")
    os.makedirs(out_dir)
    return [cli.main(argv + ["-o", os.path.join(out_dir, f"{i}.out")]) for i, argv in enumerate(invocations)]


# workload -> (set-up, run)
WORKLOADS = {
    "matrix-sweep": (setup_matrix_sweep, run_matrix_sweep),
    "matrix-ladder": (setup_matrix_ladder, run_matrix_ladder),
    "vector-ladder": (setup_vector_ladder, run_vector_ladder),
}


def environment() -> dict:
    from importlib.metadata import version  # no imports of the packages themselves

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }
