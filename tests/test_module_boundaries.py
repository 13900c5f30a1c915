"""The brute-force references stay out of the production modules.

gbstates.oracles holds the dense matrix exponential, the 2^N product space of
N atoms, the mpmath disentangled product and the dense quadrature matrices.
verify is the only module of the package that imports it, and no production
module calls expm or np.kron or imports mpmath itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gbstates

PACKAGE = Path(gbstates.__file__).parent
PRODUCTION = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("oracles", "verify"))
ORACLE_NAMES = (
    "TensorAtomSpace",
    "dicke_states_tensor",
    "disentangled_rotation",
    "expm",
    "quadrature_ops",
    "tensor_atom_space",
)


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imported(tree: ast.Module) -> set[str]:
    """Every module an import in tree names, at any depth, relative ones under gbstates:
    `from . import oracles` and `from .oracles import expm` both give gbstates.oracles."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gbstates" if node.level else None, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _call_targets(tree: ast.Module) -> set[str]:
    """The source text of every called expression, such as np.kron or scipy.linalg.expm."""
    return {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_production_modules_are_found():
    assert {"cas", "cli", "gbs", "hilbert", "hp_algebra", "squeezing"} <= set(PRODUCTION)


def test_verify_imports_the_oracles():
    assert "gbstates.oracles" in _imported(_tree("verify"))


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_the_oracles(module):
    assert "gbstates.oracles" not in _imported(_tree(module))


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_calls_no_dense_reference(module):
    tree = _tree(module)
    assert not {m for m in _imported(tree) if m.split(".")[0] == "mpmath"}
    dense = {t for t in _call_targets(tree) if t.split(".")[-1] in ("expm", "kron")}
    assert not dense


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracles_are_reached_through_their_module_only(name):
    assert hasattr(importlib.import_module("gbstates.oracles"), name)
    assert not hasattr(gbstates, name)
