"""Generalized binomial states of a single field mode.

An N-photon generalized binomial state is the finite superposition of
number states |n>, n = 0..N, with amplitudes

    sqrt(C(N,n) p^n (1-p)^(N-n)) * exp(i n phi),

where p is the single-photon occurrence probability and phi the mean
phase. The state family is in bijection with the spin-coherent states of
N two-level systems through p = cos^2(theta/2), phi = 2*pi - varphi; the
angle maps live here next to the states themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector

TWO_PI = 2.0 * math.pi


def _check_angle(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x}")


def normalize_angle(x: float) -> float:
    """Map an angle to the canonical interval [0, 2*pi); reject inf and NaN.

    A negative angle within about eps of 0 reduces to 2*pi - |x|, which
    rounds to 2*pi itself; it is taken as 0.0, the angle it equals.
    The reduction is by TWO_PI, the double nearest 2*pi, which lies 2.45e-16
    below it, so it moves x by (2.45e-16 / 2 pi) |x| = 3.9e-17 |x|: e^(ix) is
    off by 3.9e-11 at x = 1e6 and by 3.9e-8 at x = 1e9.
    """
    _check_angle(x)
    angle = float(np.mod(x, TWO_PI))
    return 0.0 if angle == TWO_PI else angle


def circular_distance(a: float, b: float) -> float:
    """Shortest distance between two angles on the circle."""
    d = normalize_angle(a - b)
    return min(d, TWO_PI - d)


def _check_photon_number(N) -> int:
    if isinstance(N, (bool, np.bool_)) or not 0 <= N < math.inf or int(N) != N:
        raise ValueError(f"max photon number must be a non-negative integer, got {N}")
    return int(N)


def _check_probability(p) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")


# lgamma(k + 1) for k = 0.._LGAMMA.size - 1, shared by every binomial row;
# read-only, and replaced by a longer copy only when a larger n is asked for
_LGAMMA = np.empty(0)
_LGAMMA.setflags(write=False)


def _lgamma_table(n: int) -> np.ndarray:
    """lgamma(k + 1) for k = 0..n, each entry the math.lgamma value.

    A read-only prefix view of the shared table, which grows to n + 1
    entries when shorter and then costs 8 (n_max + 1) bytes. A growth that
    fails (MemoryError) leaves the previous table in place. Each call reads
    one reference to a finished table, so concurrent calls need no lock: a
    growth lost to a racing one only costs a later regrowth.
    """
    global _LGAMMA
    table = _LGAMMA
    if n >= table.size:
        start = table.size
        tail = np.fromiter(map(math.lgamma, range(start + 1, n + 2)), float, n + 1 - start)
        table = np.concatenate((table, tail))
        table.setflags(write=False)
        _LGAMMA = table
    return table[: n + 1]


def _log_binomial_row(n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """log C(n, k) for k = lo..hi - 1 (default the whole row k = 0..n), entry
    for entry bit-equal to oracles.log_binomial(n, k).

    The row repeats that reference's two subtractions, lgamma(n + 1) - lgamma(k + 1)
    - lgamma(n - k + 1) in that order, on the shared _lgamma_table. Finite for
    every n; the cancellation costs about n * eps of relative accuracy in
    C(n, k) (a 1.45e-10 overlap error at n = 1e5, see benchmarks/README.md).
    """
    if hi is None:
        hi = n + 1
    lg = _lgamma_table(n)
    return lg[n] - lg[lo:hi] - lg[n - hi + 1 : n - lo + 1][::-1]


def _log_row(N: int, log_r, log_q, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """log C(N,n) + n log_r + (N-n) log_q for n = lo..hi - 1 (default the whole row),
    the one place that forms a binomial row; log_r and log_q are scalars, or (K, 1)
    columns for K rows at once."""
    n = np.arange(lo, N + 1 if hi is None else hi, dtype=float)
    out = n * log_r
    out += _log_binomial_row(N, lo, hi)  # IEEE addition commutes: the bytes of logC + n log_r
    out += (N - n) * log_q
    return out


# np.exp gives exactly +0.0 below log(2^-1075) = -745.13...; a row term whose
# log lies below this floor is a zero
_EXP_FLOOR = -746.0

# log(2^-64): terms that add up to under 2^-64 of a sum cannot reach its last bit
_LOG_EPS_64 = -64.0 * math.log(2.0)


def _support(N: int, log_r: float, log_q: float, log_floor: float) -> tuple[int, int]:
    """Index interval [lo, hi) of a binomial row outside which every term
    lies below log_floor.

    The row is the _log_row of (N, log_r, log_q) with r + q = 1; log_r or
    log_q may be -inf.
    By the Chernoff bound it lies below g(n) = -N D(n/N || r), the
    Kullback-Leibler divergence, which is concave in n with its maximum 0
    at n = N r, so the terms at or above the floor form one interval.
    A margin of 1 plus 1e-12 of the row's magnitude covers the roundoff of
    the row and of g. The whole row is returned after an O(1) test of its
    two ends. Otherwise each end is found by Newton steps on g from the
    Gaussian estimate N r -+ sqrt(2 |threshold| N r q) shifted by its
    skew, kept inside the bracket the steps have established, and then
    settled by testing g on the integers beside the root: a few
    evaluations of g, not O(log N).
    """
    if N == 0:
        return 0, 1  # the row is log C(0, 0) = 0, above every floor the callers use
    if log_floor > 0.0:  # no binomial probability exceeds 1
        return 0, 0
    if log_r == -math.inf:
        return 0, 1
    if log_q == -math.inf:
        return N, N + 1
    threshold = log_floor - 1.0 - 1e-12 * (
        N * (4.0 * math.log(N + 1.0) - log_r - log_q) - log_floor
    )
    if N * min(log_r, log_q) >= threshold:
        return 0, N + 1

    def g(n: float) -> float:
        m = N - n
        v = n * log_r + m * log_q
        if n:
            v -= n * math.log(n / N)
        if m:
            v -= m * math.log(m / N)
        return v

    # the integer maximum of the concave g is at floor(N r) or the next index
    r, q = math.exp(log_r), math.exp(log_q)
    mean = N * r
    peak = min(int(mean), N)
    if g(peak) < threshold:
        peak += 1
        if peak > N or g(peak) < threshold:
            return 0, 0
    # the roots of g = threshold to third order in n - N r: the Gaussian
    # N r -+ sqrt(2 |threshold| N r q), shifted by the skew |threshold| (q - r) / 3
    width = math.sqrt(-2.0 * threshold * mean * q)
    skew = -threshold * (q - r) / 3.0
    ends = []
    # g(0) = N log_q and g(N) = N log_r, exactly as g computes them
    for side, outer, g_outer in ((-1, 0, N * log_q), (1, N, N * log_r)):
        if g_outer >= threshold:
            ends.append(outer)
            continue
        # g(inner) >= threshold > g(outer); past the first step, concavity
        # keeps every Newton step on the outer side of the root, closing in
        inner, x = peak, mean + side * width + skew
        for _ in range(64):
            if not min(inner, outer) < x < max(inner, outer):
                x = 0.5 * (inner + outer)
            m = N - x
            log_x, log_m = math.log(x / N), math.log(m / N)
            h = x * (log_r - log_x) + m * (log_q - log_m) - threshold
            if h >= 0.0:
                inner = x
            else:
                outer = x
            slope = log_r - log_q - log_x + log_m
            step = h / slope if slope else math.inf
            # quadratic convergence: a step this short leaves under half an index
            done = step * step * (1.0 / x + 1.0 / m) < abs(slope)
            x -= step
            if done:
                break
        # the integer end: the last index on the peak's side of the root
        x = min(max(x, min(inner, outer)), max(inner, outer))
        end = math.ceil(x) if side < 0 else math.floor(x)
        while end != peak and g(end) < threshold:
            end -= side
        while 0 <= end + side <= N and g(end + side) >= threshold:
            end += side
        ends.append(end)
    return ends[0], ends[1] + 1


@dataclass(frozen=True)
class GbsParams:
    """Defining parameters (N, p, phi) of a generalized binomial state."""

    N: int
    p: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "N", _check_photon_number(self.N))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"single-photon probability must lie in [0, 1], got {self.p}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "phi", normalize_angle(self.phi))


@dataclass(frozen=True)
class BlochAngles:
    """Polar and azimuthal angles of a Bloch-sphere direction."""

    theta: float
    varphi: float = 0.0

    def __post_init__(self):
        theta = float(self.theta)
        # arccos roundoff can leave theta a hair outside [0, pi]
        if -1e-9 <= theta < 0.0:
            theta = 0.0
        elif math.pi < theta <= math.pi + 1e-9:
            theta = math.pi
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"polar angle must lie in [0, pi], got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "varphi", normalize_angle(self.varphi))


def _support_moduli(N: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, m): the moduli sqrt(C(N,n) p^n (1-p)^(N-n)) of n = lo..lo + m.size - 1,
    the _support interval outside which every modulus underflows to +0.0.

    Evaluated through log-gamma, so the result stays finite for every N;
    the relative error grows like N * eps (see _log_binomial_row). The p = 0
    and p = 1 limits are exact (0^0 treated as 1). O(sqrt(N p (1-p)))
    logs and exps.
    """
    if p == 0.0:
        return 0, np.ones(1)
    if p == 1.0:
        return N, np.ones(1)
    log_p, log_q = math.log(p), math.log1p(-p)
    lo, hi = _support(N, log_p, log_q, 2.0 * _EXP_FLOOR)
    logw = _log_row(N, log_p, log_q, lo, hi)
    logw *= 0.5
    return lo, np.exp(logw, out=logw)


# the block length b of _phase_ramp: n = b j + k. Fixed, so that each entry's
# bytes depend on (n, phi) alone; a ramp of size entries costs about
# 2 (size / b + b) complex exps, fewest near size = b^2 (the gbs_state support
# at N = 1e5 holds 16642 entries)
_RAMP_BLOCK = 128


def _phase_ramp(phi: float, lo: int, out: np.ndarray) -> np.ndarray:
    """out[k] = e^(i phi (lo + k)) for k = 0..out.size - 1, out a contiguous
    complex row; returns out.

    Two levels, n = b j + k with b = _RAMP_BLOCK: e^(i phi n) is the product of
    a coarse entry e^(i phi b j) and a fine entry e^(i phi k), each of them
    e^(i x head) e^(i x tail) with head the 24-bit head of phi. x * head is
    exact for n < 2^29, so no phase carries the rounding of n * phi (up to
    n |phi| eps / 2, 5.8e-11 at n = 1e5, phi = 5.99): every entry is within a few
    eps of e^(i n phi). About 2 (out.size / b + b) complex exps and one complex
    product per entry, written into out. Every product takes numpy's loop for a
    contiguous run times one broadcast entry, so an entry's bytes depend only on
    (n, phi): a window equals the same slice of a whole-row ramp.
    """
    b = _RAMP_BLOCK
    size = out.size
    j0, k0 = divmod(lo, b)
    one_block = k0 + size <= b
    # the fine entries k, then the coarse entries b j of the blocks the window touches
    k = np.arange(k0, k0 + size) if one_block else np.arange(b)
    j = np.arange(j0, j0 + 1 if one_block else (lo + size - 1) // b + 1)
    x = np.concatenate((k, b * j)).astype(float)
    head = float(np.float32(phi))
    phases = np.exp(x * (1j * head)) * np.exp(x * (1j * (phi - head)))
    fine, coarse = phases[: k.size], phases[k.size :]
    if one_block:
        return np.multiply(coarse, fine, out=out)
    # the rest of block j0, the whole blocks after it, then what is left of the last
    first = b - k0
    whole = (size - first) // b
    last = first + whole * b
    np.multiply(coarse[:1], fine[k0:], out=out[:first])
    np.multiply(coarse[1 : whole + 1, None], fine, out=out[first:last].reshape(whole, b))
    np.multiply(coarse[whole + 1 :], fine[: size - last], out=out[last:])
    return out


def _phased(mods: np.ndarray, phi: float, lo: int, out: np.ndarray) -> np.ndarray:
    """out[k] = mods[k] * e^(i phi (lo + k)) for k = 0..mods.size - 1; returns out."""
    _phase_ramp(phi, lo, out)
    out *= mods
    return out


def _phased_state(dim: int, lo: int, mods: np.ndarray, phi: float) -> StateVector:
    """The normalised state of dim entries whose entry lo + k is proportional to
    mods[k] * e^(i phi (lo + k)), and +0.0 outside; no entry is a signed zero.

    The ramp, the product and the norm run on the mods.size entries alone, the
    norm and the scaling by its reciprocal on their real and imaginary parts.
    """
    amp = np.zeros(dim, dtype=np.complex128)
    parts = _phased(mods, phi, lo, amp[lo : lo + mods.size]).view(float)
    parts *= 1.0 / np.linalg.norm(parts)
    parts += 0.0  # -0.0 + 0.0 is +0.0: an underflowed product keeps no sign
    return StateVector._adopt(amp)


def binomial_amplitudes(N: int, p: float) -> np.ndarray:
    """Moduli sqrt(C(N,n) p^n (1-p)^(N-n)) for n = 0..N.

    The _support_moduli of (N, p) in a zero row of N + 1 entries: an O(N)
    zero fill plus O(sqrt(N p (1-p))) logs and exps.
    """
    _check_photon_number(N)
    _check_probability(p)
    w = np.zeros(N + 1)
    lo, mods = _support_moduli(N, p)
    w[lo : lo + mods.size] = mods
    return w


def gbs_state(params: GbsParams, dim: int | None = None) -> StateVector:
    """Generalized binomial state |N, p, phi> on a dim-dimensional Fock space.

    Phases, moduli and norm are evaluated on the _support_moduli interval
    alone; every entry outside it is +0.0.
    """
    N = params.N
    if dim is None:
        dim = N + 1
    if dim < N + 1:
        raise ValueError(f"need dim >= N+1 = {N + 1}, got {dim}")
    return _phased_state(dim, *_support_moduli(N, params.p), params.phi)


def gbs_overlap(a: GbsParams, b: GbsParams) -> complex:
    """Closed-form inner product <N,p,phi | N,p',phi'> of two states with equal N.

    Sums C(N,n) (p p')^(n/2) [(1-p)(1-p')]^((N-n)/2) e^(i n (phi'-phi)) directly
    from the parameters; vanishes exactly at the antipodal pair (1-p, phi+pi).
    The terms are s^N times a binomial row in r = sqrt(p p') / s, with
    s = sqrt(p p') + sqrt((1-p)(1-p')), so their moduli sum to s^N exactly.
    Only the _support interval of that row is evaluated and summed, with the
    higher floor of 2^-64 / (N+1), below which the row entries left out cannot
    reach the last bit of the sum, and the level where np.exp underflows:
    O(sqrt(N r (1-r))) work, O(1) when s^N underflows (an antipode far from p = 1/2).
    """
    if a.N != b.N:
        raise ValueError(f"max photon numbers differ: {a.N} != {b.N}")
    N = a.N
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log(a.p * b.p)
        lq = np.log((1.0 - a.p) * (1.0 - b.p))
        log_s = np.logaddexp(0.5 * lp, 0.5 * lq)
        floor = max(_EXP_FLOOR - N * log_s, _LOG_EPS_64 - math.log(N + 1.0))
        lo, hi = _support(N, 0.5 * lp - log_s, 0.5 * lq - log_s, floor)
    if lo == hi:
        return 0j
    # the pole p p' = 0 or q q' = 0: the window is the one entry n = 0 or n = N,
    # where the -inf log has the power 0, so it counts as 0
    half_lp, half_lq = (0.0 if x == -math.inf else 0.5 * x for x in (lp, lq))
    mods = np.exp(_log_row(N, half_lp, half_lq, lo, hi))
    terms = _phased(mods, b.phi - a.phi, lo, np.empty(hi - lo, dtype=np.complex128))
    return complex(np.add.reduce(terms))


def orthogonal_partner(params: GbsParams) -> GbsParams:
    """The unique state with the same N orthogonal to the given one.

    At N = 0 every state is the vacuum |0>, so no orthogonal partner
    exists and a ValueError is raised.
    """
    if params.N == 0:
        raise ValueError("N = 0 has no orthogonal partner: every state is the vacuum |0>")
    return GbsParams(params.N, 1.0 - params.p, params.phi + math.pi)


def params_to_angles(params: GbsParams) -> BlochAngles:
    """Bloch direction of a state: theta = 2*arccos(sqrt(p)), varphi = 2*pi - phi,
    with theta taken as 2*atan2(sqrt(1-p), sqrt(p)) to keep its digits as p -> 1."""
    theta = 2.0 * math.atan2(math.sqrt(1.0 - params.p), math.sqrt(params.p))
    return BlochAngles(theta, TWO_PI - params.phi)


def angles_to_params(angles: BlochAngles, N: int) -> GbsParams:
    """Inverse of params_to_angles: p = cos^2(theta/2), phi = 2*pi - varphi.

    Near theta = 0 this p loses 1 - p = sin^2(theta/2): cos(theta/2) rounds
    to 1 once theta^2 / 8 < 2^-54, so p is exactly 1 below theta = 2^-25.5
    (about 2.1e-8; 1.5e-8 for an exactly rounded cos^2), and above it 1 - p
    is off by up to about eps absolute (1.3% at theta = 3e-8). A path that
    needs 1 - p of a small polar angle must take it from theta, not from p.
    """
    p = math.cos(angles.theta / 2.0) ** 2
    return GbsParams(N, p, TWO_PI - angles.varphi)


def coherent_state_truncated(alpha: complex, dim: int) -> StateVector:
    """Truncated Glauber coherent state, renormalized on the finite space.

    The dimension must satisfy |alpha|^2 + 10|alpha| + 20 <= dim so the
    discarded tail carries less than ~1e-12 of the norm.
    """
    alpha = complex(alpha)
    a = abs(alpha)
    if not math.isfinite(a):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if a * a + 10.0 * a + 20.0 > dim:
        raise ValueError(f"dim {dim} too small for |alpha| = {a}: tail not negligible")
    if a == 0.0:
        return _phased_state(dim, 0, np.ones(1), 0.0)
    n = np.arange(dim, dtype=float)
    logmod = -0.5 * a * a + n * math.log(a) - 0.5 * _lgamma_table(dim - 1)
    return _phased_state(dim, 0, np.exp(logmod, out=logmod), float(np.angle(alpha)))
