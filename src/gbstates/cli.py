"""Command-line front end: states, overlaps, bases, scans and verification.

Subcommands: state, overlap, partner, basis, expand, squeeze-scan, verify.
Everything serializes to JSON (shortest round-trip floats) or CSV (17
significant digits), always deterministically: identical invocations
produce byte-identical output. Exit codes: 0 success, 1 verification
failure, 2 usage error or an N too large for memory. GBSTATES_TOLERANCE
sets the default verification tolerance.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import warnings

import numpy as np

from .delta_basis import delta_basis
from .gbs import GbsParams, gbs_overlap, gbs_state, orthogonal_partner
from .hilbert import StateVector
from .resolution import SphereQuadrature, _default_node_counts, reconstruct
from .squeezing import squeeze_scan

CSV_FLOAT = "{:.17g}"


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _json(payload: dict) -> str:
    # allow_nan=False: NaN and Infinity are not JSON, so never print them
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _amplitude_list(amp: np.ndarray) -> list[dict]:
    return [{"re": float(z.real), "im": float(z.imag)} for z in amp]


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path!r}: {exc}")


class UsageError(Exception):
    pass


def _csv(header: str, rows) -> str:
    """CSV text of the header and rows, each number as CSV_FLOAT (an integer prints as is)."""
    line = ",".join([CSV_FLOAT] * (header.count(",") + 1))
    return "\n".join([header, *(line.format(*row) for row in rows)]) + "\n"


def _write(args, payload: dict, header: str, rows) -> None:
    """Emit payload as JSON, or with --format csv the rows (an iterable read only then)."""
    _emit(_json(payload) if args.format == "json" else _csv(header, rows), args.output)


def _amplitude_rows(amplitudes: list[dict]):
    return ((n, a["re"], a["im"]) for n, a in enumerate(amplitudes))


def cmd_state(args) -> int:
    params = GbsParams(args.N, args.p, _angle(args.phi, args.degrees))
    amplitudes = _amplitude_list(gbs_state(params, args.dim).amp)
    payload = {"N": params.N, "p": params.p, "phi": params.phi, "amplitudes": amplitudes}
    _write(args, payload, "n,re,im", _amplitude_rows(amplitudes))
    return 0


def cmd_overlap(args) -> int:
    a = GbsParams(args.N, args.p, _angle(args.phi, args.degrees))
    b = GbsParams(args.N, args.p2, _angle(args.phi2, args.degrees))
    value = gbs_overlap(a, b)
    payload = {"N": args.N, "re": value.real, "im": value.imag, "abs": abs(value)}
    _write(args, payload, "re,im,abs", [(value.real, value.imag, abs(value))])
    return 0


def cmd_partner(args) -> int:
    partner = orthogonal_partner(GbsParams(args.N, args.p, _angle(args.phi, args.degrees)))
    payload = {"N": partner.N, "p": partner.p, "phi": partner.phi}
    _write(args, payload, "N,p,phi", [(partner.N, partner.p, partner.phi)])
    return 0


def cmd_basis(args) -> int:
    basis = delta_basis(args.N, args.p, _angle(args.phi, args.degrees))
    states = [_amplitude_list(s.amp) for s in basis.states]
    payload = {"N": args.N, "p": args.p, "phi": basis.phi, "states": states}
    rows = ((m, *row) for m, s in enumerate(states) for row in _amplitude_rows(s))
    _write(args, payload, "m,n,re,im", rows)
    return 0


def _load_state_file(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read state file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict) or "amplitudes" not in data:
        raise UsageError(f"{path}: missing required field 'amplitudes'")
    amp = []
    for i, entry in enumerate(data["amplitudes"]):
        if not isinstance(entry, dict) or "re" not in entry or "im" not in entry:
            raise UsageError(f"{path}: amplitudes[{i}] must be an object with fields 're' and 'im'")
        try:
            z = complex(float(entry["re"]), float(entry["im"]))
        except (TypeError, ValueError):
            raise UsageError(f"{path}: amplitudes[{i}] has non-numeric 're'/'im'")
        if not cmath.isfinite(z):
            raise UsageError(f"{path}: amplitudes[{i}] is not finite")
        amp.append(z)
    if not amp:
        raise UsageError(f"{path}: amplitudes list is empty")
    return np.array(amp, dtype=np.complex128)


def cmd_expand(args) -> int:
    amp = _load_state_file(args.state_file)
    n = args.N if args.N is not None else amp.size - 1
    n_theta, n_phi = _default_node_counts(n)
    n_theta = args.theta_nodes if args.theta_nodes is not None else n_theta
    n_phi = args.phi_nodes if args.phi_nodes is not None else n_phi
    quad = SphereQuadrature.build(n_theta, n_phi)
    # a warning (the under-resolved grid) is one plain stderr line, without
    # the file and source line of Python's default display
    with warnings.catch_warnings(record=True) as caught:
        amplitudes = _amplitude_list(reconstruct(StateVector._adopt(amp), n, quad).amp)
    for warning in caught:
        print(f"gbstates expand: warning: {warning.message}", file=sys.stderr)
    _write(args, {"N": n, "amplitudes": amplitudes}, "n,re,im", _amplitude_rows(amplitudes))
    return 0


def cmd_squeeze_scan(args) -> int:
    if args.p_steps < 2 or args.phi_steps < 2:
        raise UsageError("scan needs at least 2 steps along each axis")
    p_grid = np.linspace(0.0, 1.0, args.p_steps)
    phi_grid = np.linspace(0.0, 2.0 * math.pi, args.phi_steps)
    rows = squeeze_scan(args.N, p_grid, phi_grid, source=args.source)
    _emit(_csv("N,p,phi,S_X,S_P", (r[:5] for r in rows)), args.output)
    return 0


def cmd_verify(args) -> int:
    # imported here: verify and its oracles are compiled and loaded only for this subcommand
    from .verify import VerifyConfig, run_verification

    tolerance = args.tolerance
    if tolerance is None:
        env = os.environ.get("GBSTATES_TOLERANCE")
        if env is not None:
            try:
                tolerance = float(env)
            except ValueError:
                raise UsageError(f"GBSTATES_TOLERANCE is not a float: {env!r}")
    cfg = VerifyConfig(
        tolerance=tolerance,
        seed=args.seed,
        groups=tuple(args.group) if args.group else None,
        n=args.N,
        timings=args.timings,
    )
    try:
        report = run_verification(cfg)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(_json(report), args.output)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbstates",
        description="Generalized binomial states: construction, bases and squeezing scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_phi=True):
        p.add_argument("-N", type=int, required=True, help="maximum photon number")
        p.add_argument("-p", type=float, required=True, help="single-photon probability in [0,1]")
        if with_phi:
            p.add_argument("--phi", type=float, default=0.0, help="mean phase (radians)")
        p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p_state = sub.add_parser("state", help="amplitudes of |N,p,phi>")
    add_common(p_state)
    p_state.add_argument("--dim", type=int, default=None, help="embedding dimension (default N+1)")
    p_state.set_defaults(func=cmd_state)

    p_overlap = sub.add_parser("overlap", help="closed-form overlap of two states with equal N")
    add_common(p_overlap)
    p_overlap.add_argument("--p2", type=float, required=True, help="second-state probability")
    p_overlap.add_argument("--phi2", type=float, default=0.0, help="second-state phase")
    p_overlap.set_defaults(func=cmd_overlap)

    p_partner = sub.add_parser("partner", help="the unique orthogonal partner parameters")
    add_common(p_partner)
    p_partner.set_defaults(func=cmd_partner)

    p_basis = sub.add_parser("basis", help="orthonormal ladder basis between two orthogonal states")
    add_common(p_basis)
    p_basis.set_defaults(func=cmd_basis)

    p_expand = sub.add_parser(
        "expand", help="re-expand a state through the over-complete basis (round trip)"
    )
    p_expand.add_argument("state_file", help="JSON file with an 'amplitudes' array of {re, im}")
    p_expand.add_argument("-N", type=int, default=None, help="basis size (default: state dimension - 1)")
    p_expand.add_argument("--theta-nodes", type=int, default=None, help="Gauss-Legendre node count")
    p_expand.add_argument("--phi-nodes", type=int, default=None, help="azimuthal node count")
    p_expand.add_argument("--format", choices=("json", "csv"), default="json")
    p_expand.add_argument("-o", "--output", default=None)
    p_expand.set_defaults(func=cmd_expand)

    p_scan = sub.add_parser("squeeze-scan", help="CSV scan of squeezing indexes over (p, phi)")
    p_scan.add_argument("-N", type=int, required=True)
    p_scan.add_argument("--p-steps", type=int, required=True, help="points on [0, 1], endpoints included")
    p_scan.add_argument("--phi-steps", type=int, required=True, help="points on [0, 2*pi], endpoints included")
    p_scan.add_argument("--source", choices=("closed_form", "direct"), default="closed_form")
    p_scan.add_argument("-o", "--output", default=None)
    p_scan.set_defaults(func=cmd_squeeze_scan)

    p_verify = sub.add_parser("verify", help="run the numerical verification suites")
    p_verify.add_argument(
        "--group",
        action="append",
        default=None,
        help="restrict to one group (repeatable); default: all groups",
    )
    p_verify.add_argument("-N", type=int, default=None, help="restrict N-sweeps to one value")
    p_verify.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every residual bound (default: per-check bounds, or GBSTATES_TOLERANCE)",
    )
    p_verify.add_argument("--seed", type=int, default=7, help="seed for randomized suites")
    p_verify.add_argument(
        "--timings", action="store_true", help="add each group's wall time as its 'seconds' field"
    )
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        size = "" if args.N is None else f" for N={args.N}"  # every subcommand has -N
        print(f"error: not enough memory{size}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
