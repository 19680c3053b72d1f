"""Every numerical threshold of the package lives in ``Tolerances``.

A float literal of at most 1e-6 in ``src/woldlab`` is a threshold that
``--tol-scale`` cannot reach.  The scan below fails on any such literal
outside ``config.py`` that is not on the allowlist, which is empty.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

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


# -- tolerance edges ----------------------------------------------------------
# One row per field: an input family with one scalar knob, set so that the
# gate's quantity sits at a given multiple of the field's default.  The
# inputs at 0.5x and 2x get opposite verdicts, and DEFAULTS.scaled(10) moves
# the edge past 2x, so the 2x input then gets the verdict of the 0.5x one:
# a bound on a residual accepts it, a minimum separation rejects it.


def doubly_commuting_edge(multiple):
    """wold_pair on a commuting unitary pair (U, V exp(i eps H)), eps set so
    that the larger doubly-commuting residual is ``multiple`` times the
    bound; the residual is linear in eps to first order."""
    U, V = wl.commuting_unitary_pair(4, seed=5)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = X + X.conj().T

    def turned(eps):
        return wl.OperatorModel(U.dom, U.dom, V.matrix @ sla.expm(1j * eps * H))

    probe = 1e-6
    slope = max(wl.doubly_commuting_residual(U, turned(probe))) / probe
    target = multiple * wl.DEFAULTS.doubly_commuting
    W = turned(target / slope)
    assert max(wl.doubly_commuting_residual(U, W)) == pytest.approx(target, rel=0.01)
    return lambda tols: wl.wold_pair(U, W, tols=tols)


def isometry_edge(multiple):
    """slocinski on ((1 + eps) U, V) for a commuting unitary pair:
    ||V*V - I|| = 2 eps + eps^2 for the first operator."""
    U, V = wl.commuting_unitary_pair(4, seed=7)
    eps = multiple * wl.DEFAULTS.isometry / 2
    grown = wl.OperatorModel(U.dom, U.dom, (1 + eps) * U.matrix)
    assert wl.unitarity_residual(grown, margin=None) == pytest.approx(2 * eps, rel=0.01)
    return lambda tols: wl.slocinski(grown, V, tols=tols)


def atom_separation_edge(multiple):
    """Two unit atoms ``multiple`` times the separation apart."""
    gap = multiple * wl.DEFAULTS.atom_separation
    atoms = ((1.0, np.eye(1)), (1.0 + gap, np.eye(1)))
    return lambda tols: wl.CircleMeasure(dim=1, atoms=atoms, tols=tols)


#: field -> (input at a multiple of its default, error, message, whether
#: the 0.5x input passes)
EDGES = {
    "doubly_commuting": (doubly_commuting_edge, wl.AssumptionError, "not doubly commuting", True),
    "isometry": (isometry_edge, wl.AssumptionError, "not an isometry", True),
    "atom_separation": (atom_separation_edge, ValueError, "not separated", False),
}


def passes(call, tols, error, message):
    try:
        call(tols)
    except error as exc:
        assert message in str(exc)
        return False
    return True


@pytest.mark.parametrize("field", list(EDGES))
def test_each_gate_flips_between_half_and_twice_its_tolerance(field):
    make, error, message, half_passes = EDGES[field]
    half, twice = make(0.5), make(2.0)
    assert passes(half, wl.DEFAULTS, error, message) is half_passes
    assert passes(twice, wl.DEFAULTS, error, message) is not half_passes
    assert passes(twice, wl.DEFAULTS.scaled(10), error, message) is half_passes
