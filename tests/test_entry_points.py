"""Fresh-interpreter checks: import side effects and the ``python -m`` entry points."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbstates
from gbstates.cli import main

SRC = str(Path(gbstates.__file__).resolve().parent.parent)


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120, check=False
    )


def test_import_leaves_mpmath_unloaded():
    proc = run_python("-c", "import sys, gbstates; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


def test_import_builds_no_lgamma_table():
    proc = run_python("-c", "import gbstates.gbs as g; print(g._LGAMMA.size)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"0\n"


def test_import_leaves_scipy_unloaded():
    proc = run_python("-c", "import sys, gbstates; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


def test_vector_subcommands_leave_scipy_unloaded(tmp_path):
    state_file = str(tmp_path / "state.json")
    script = f"""
import sys
from gbstates.cli import main
runs = [
    ["state", "-N", "6", "-p", "0.4", "--phi", "0.7", "-o", {state_file!r}],
    ["overlap", "-N", "6", "-p", "0.4", "--phi", "0.7", "--p2", "0.2", "--phi2", "1.5"],
    ["partner", "-N", "6", "-p", "0.4", "--phi", "0.7"],
    ["expand", {state_file!r}],
    ["squeeze-scan", "-N", "20", "--p-steps", "5", "--phi-steps", "4"],
]
codes = [main(argv) for argv in runs]
print(codes, "scipy" in sys.modules, file=sys.stderr)
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"[0, 0, 0, 0, 0] False\n"


@pytest.mark.parametrize("module", ["gbstates", "gbstates.cli"])
@pytest.mark.parametrize(
    "argv",
    [
        ["state", "-N", "3", "-p", "0.4", "--phi", "0.7"],
        ["squeeze-scan", "-N", "4", "--p-steps", "3", "--phi-steps", "3"],
        ["state", "-N", "3", "-p", "0.4", "--phi", "nan"],
    ],
)
def test_python_m_matches_main(capsys, module, argv):
    code = main(argv)
    captured = capsys.readouterr()
    proc = run_python("-m", module, *argv)
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()
