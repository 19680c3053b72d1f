"""Every numerical threshold of the package lives in ``Tolerances``.

A float literal of at most 1e-6 in ``src/woldlab`` is a threshold that
``--tol-scale`` cannot reach.  The scan below fails on any such literal
outside ``config.py`` that is not on the allowlist, which is empty.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import woldlab as wl
from woldlab.space import EuclideanSpace

PACKAGE = Path(wl.__file__).resolve().parent

#: (module, enclosing definition, value) of the thresholds that remain: none
ALLOWED = set()


def small_float_literals(path):
    """(enclosing definition, value) of every float literal in (0, 1e-6]."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < node.value <= 1e-6):
            found.append((scope, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_no_bare_threshold_outside_config():
    found = {(path.name, scope, value)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
             for scope, value in small_float_literals(path)}
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_the_scan_sees_a_bare_threshold(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class A:\n    def f(self, x, tol=1e-9):\n        return x > -2.5e-7\n")
    assert small_float_literals(src) == [("A.f", 1e-9), ("A.f", 2.5e-7)]


def test_moved_thresholds_keep_their_defaults():
    assert wl.DEFAULTS.projection_law == 1e-8
    assert wl.DEFAULTS.isometric_mass == 1e-8
    assert wl.DEFAULTS.orthonormal == 1e-8


def test_orthonormality_gate_reads_its_tolerance():
    sp = EuclideanSpace(2)
    skewed = np.array([[1.0, 0.0], [1e-7, 1.0]])
    with pytest.raises(ValueError, match="not Gram-orthonormal"):
        wl.Subspace(sp, skewed)
    assert wl.Subspace(sp, skewed, wl.DEFAULTS.scaled(100)).dim == 2
