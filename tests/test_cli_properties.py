"""Hypothesis properties of the CLI exit codes, run in-process through cli.main.

Bad numbers (a non-finite angle, probability or tolerance, a negative N, a
node count below one) exit 2 with one "error:" line and no output; valid
small inputs exit 0 or 1, raise nothing, and print strict JSON, without NaN
or Infinity.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstates.cli import main

NON_FINITE = st.sampled_from(["nan", "-nan", "inf", "-inf", "NaN", "Infinity", "-Infinity"])
NEGATIVE = st.integers(-10**12, -1).map(str)
NON_POSITIVE = st.integers(-10**12, 0).map(str)
PHASES = st.floats(-1e6, 1e6).map(repr)
PROBABILITIES = st.floats(0.0, 1.0).map(repr)
CHEAP_GROUPS = ("gbs", "coherent", "squeezing")
SUBCOMMANDS = ("state", "overlap", "partner", "basis", "squeeze-scan", "expand", "verify")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    """A normalized state and the zero vector, which no support check rejects."""
    folder = tmp_path_factory.mktemp("cli")
    amplitudes = {
        "state": '[{"re": 0.6, "im": 0.0}, {"re": 0.0, "im": 0.8}]',
        "zero": '[{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]',
    }
    paths = []
    for name, amps in amplitudes.items():
        path = folder / f"{name}.json"
        path.write_text(f'{{"amplitudes": {amps}}}')
        paths.append(str(path))
    return paths


@st.composite
def bad_argv(draw, state_paths):
    """An invocation with exactly one bad number in it."""
    kind = draw(st.sampled_from(SUBCOMMANDS))
    if kind == "squeeze-scan":
        return [kind, "-N", draw(NEGATIVE), "--p-steps", "2", "--phi-steps", "2"]
    if kind == "expand":
        option = draw(st.sampled_from(["-N", "--theta-nodes", "--phi-nodes"]))
        bad = draw(NEGATIVE if option == "-N" else NON_POSITIVE)
        return [kind, draw(st.sampled_from(state_paths)), option, bad]
    if kind == "verify":
        group = draw(st.sampled_from(CHEAP_GROUPS + ("completeness", "rotation")))
        if draw(st.booleans()):
            return [kind, "--group", group, "-N", draw(NEGATIVE)]
        return [kind, "--group", group, f"--tolerance={draw(NON_FINITE)}"]
    fields = {"-N": "3", "-p": "0.4", "--phi": "0.5"}
    if kind == "overlap":
        fields.update({"--p2": "0.6", "--phi2": "1.5"})
    bad = draw(st.sampled_from(sorted(fields)))
    fields[bad] = draw(NEGATIVE) if bad == "-N" else draw(NON_FINITE)
    argv = [kind] + [f"{k}={v}" for k, v in fields.items()]
    return argv + (["--degrees"] if draw(st.booleans()) else [])


@st.composite
def valid_argv(draw, state_paths):
    kind = draw(st.sampled_from(SUBCOMMANDS))
    n = str(draw(st.integers(1 if kind == "partner" else 0, 12)))
    fmt = ["--format", draw(st.sampled_from(["json", "csv"]))]
    if kind == "squeeze-scan":
        steps = [f"--{axis}-steps={draw(st.integers(2, 5))}" for axis in ("p", "phi")]
        source = draw(st.sampled_from(["closed_form", "direct"]))
        return [kind, "-N", n, *steps, "--source", source]
    if kind == "expand":
        return [kind, draw(st.sampled_from(state_paths)), *fmt]
    if kind == "verify":
        group = draw(st.sampled_from(CHEAP_GROUPS))
        return [kind, "--group", group, "-N", draw(st.sampled_from(["0", "1", "3"]))]
    argv = [kind, "-N", n, f"-p={draw(PROBABILITIES)}", f"--phi={draw(PHASES)}", *fmt]
    if kind == "overlap":
        argv += [f"--p2={draw(PROBABILITIES)}", f"--phi2={draw(PHASES)}"]
    return argv + (["--degrees"] if draw(st.booleans()) else [])


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_bad_numbers_exit_2_with_one_error_line(state_files, data):
    code, out, err = run(data.draw(bad_argv(state_files)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_valid_inputs_exit_0_or_1_with_strict_json(state_files, data):
    argv = data.draw(valid_argv(state_files))
    code, out, err = run(argv)
    assert code in (0, 1), err
    assert err == ""
    if "csv" not in argv and argv[0] != "squeeze-scan":
        strict_json(out)
    else:
        cells = [x for line in out.splitlines()[1:] for x in line.split(",")]
        assert all(math.isfinite(float(x)) for x in cells)
