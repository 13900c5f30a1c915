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
