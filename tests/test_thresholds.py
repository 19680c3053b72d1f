"""Every numerical threshold of the package lives in ``Tolerances``, and
every public routine of the package has a reader.

A float literal of at most 1e-6 in ``src/woldlab`` is a threshold that
``--tol-scale`` cannot reach.  The scan below fails on any such literal
outside ``config.py`` that is not on the allowlist, which is empty.  A
second scan fails on any public function or method that neither the
package, the demos nor the acceptance tests read, and a third on any
parameter defaulting to True, False or None that none of them, nor the
benchmark, sets.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import woldlab as wl
from woldlab.decomp import MeasureComparison
from woldlab.space import EuclideanSpace

PACKAGE = Path(wl.__file__).resolve().parent
ROOT = PACKAGE.parents[1]

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


# -- routines with no reader --------------------------------------------------

#: public definitions that nothing reads in the package, the demos or the
#: acceptance tests: the quadrature oracle of ``poisson_integral``, and the
#: flat index that tests/reference.py reads
UNREAD_ALLOWED = {"quadrature_poisson", "GradedPolySpace.flat_index"}


def public_definitions(path):
    """The public module-level functions of ``path``, and the public
    methods of its public classes as ``Class.method``."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not item.name.startswith("_")]
        else:
            found.append(node.name)
    return found


def names_read(path):
    """Every name loaded and every attribute read in ``path``."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_definitions(package, readers):
    """The public definitions of the modules of ``package`` whose name no
    file of ``readers`` reads, sorted."""
    read = set().union(*(names_read(path) for path in readers))
    return sorted(name for path in sorted(package.glob("*.py"))
                  for name in public_definitions(path)
                  if name.rsplit(".", 1)[-1] not in read)


def test_every_public_definition_has_a_reader():
    readers = ([path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + [Path(__file__).resolve().parent / "test_acceptance.py"])
    assert set(unread_definitions(PACKAGE, readers)) == UNREAD_ALLOWED


def test_the_scan_sees_an_unread_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return 2\n\n\n"
        "class A:\n    def read(self):\n        return 3\n\n"
        "    def idle(self):\n        return 4\n")
    (tmp_path / "client.py").write_text("from mod import A, used\n\nused() + A().read()\n")
    assert unread_definitions(tmp_path, [tmp_path / "client.py"]) == ["A.idle", "unused"]


# -- switches that no caller sets ---------------------------------------------

#: parameters defaulting to True, False or None that nothing sets in the
#: package, the demos, the acceptance tests or the benchmark: the
#: extrapolation switch of the quadrature oracle
UNSET_ALLOWED = {"quadrature_inner_product.richardson"}

def _is_switch(default):
    """Whether a default (an AST node, or None for no default) is the
    constant True, False or None, compared by identity since 0 == False."""
    return isinstance(default, ast.Constant) and any(
        default.value is value for value in (True, False, None))


def switches(path):
    """(definition.parameter, position) of every parameter of a public
    function or method of ``path`` that defaults to True, False or None.
    The position counts the arguments a call passes, so it skips the
    ``self`` or ``cls`` of a method; a keyword-only parameter has none."""
    found = []

    def scan(fn, name, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        found.extend((f"{name}.{arg.arg}", i - skip)
                     for i, (arg, default) in enumerate(zip(positional, defaults))
                     if _is_switch(default))
        found.extend((f"{name}.{arg.arg}", None)
                     for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                     if _is_switch(default))

    for node in ast.parse(path.read_text()).body:
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    scan(item, f"{node.name}.{item.name}", 1)
        else:
            scan(node, node.name, 0)
    return found


def calls(path):
    """callee name -> [(positions, keywords)] of every call in ``path``:
    how many arguments it passes by position and the names it passes by
    keyword.  What a starred argument or ``**kwargs`` passes is not
    known, so it sets nothing, nor does any argument after a starred one."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
        out.setdefault(name, []).append((starred[0] if starred else len(node.args),
                                         {k.arg for k in node.keywords}))
    return out


def unset_switches(package, readers):
    """The switches of the modules of ``package`` that no call in
    ``readers`` sets, by keyword or by position, sorted."""
    seen = {}
    for path in readers:
        for name, sites in calls(path).items():
            seen.setdefault(name, []).extend(sites)

    def is_set(switch, position):
        fn, param = switch.rsplit(".", 2)[-2:]
        return any(param in kws or (position is not None and npos > position)
                   for npos, kws in seen.get(fn, []))

    return sorted(switch for path in sorted(package.glob("*.py"))
                  for switch, position in switches(path) if not is_set(switch, position))


def test_every_switch_is_set_by_a_caller():
    readers = ([path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + [Path(__file__).resolve().parent / "test_acceptance.py"]
               + sorted((ROOT / "perfbench").rglob("*.py")))
    assert set(unset_switches(PACKAGE, readers)) == UNSET_ALLOWED


def test_the_scan_sees_a_switch_no_caller_sets(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(x, on=True, off=False, *, key=None, n=3):\n    return x\n\n\n"
        "class A:\n    def m(self, y, flag=None):\n        return y\n\n"
        "    def _hidden(self, z=False):\n        return z\n")
    (tmp_path / "client.py").write_text(
        "from mod import A, f\n\nf(1, True, key=2)\nA().m(1, None)\n")
    assert unset_switches(tmp_path, [tmp_path / "client.py"]) == ["f.off"]
    # what a starred argument or **kwargs passes is not known
    (tmp_path / "client.py").write_text(
        "from mod import A, f\n\nf(*[1, 2, 3])\nf(1, **{'key': 2})\nA().m(*[1, 2])\n")
    assert unset_switches(tmp_path, [tmp_path / "client.py"]) == [
        "A.m.flag", "f.key", "f.off", "f.on"]


# -- tolerance defaults -------------------------------------------------------


def test_moved_thresholds_keep_their_defaults():
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


def measure_match_edge(multiple):
    """The comparison of a one-atom scalar measure with itself, its weight
    times 1 + eps, eps = ``multiple`` times the tolerance: every Fourier
    coefficient moves by eps, and at twice the tolerance the spectra of the
    generic combinations already differ."""
    eps = multiple * wl.DEFAULTS.measure_match
    a = wl.CircleMeasure.from_scalar_atoms([(0.7, 1.0)])
    b = wl.CircleMeasure.from_scalar_atoms([(0.7, 1.0 + eps)])
    return lambda tols: wl.measures_equal_up_to_unitary(a, b, tols=tols)


def vmap_edge(multiple, scramble_seed=None):
    """build_V of a coordinate pair onto the model space of its measures,
    with each atom weight of the first times 1 + eps, eps set so that the
    isometry residual is ``multiple`` times the bound; the residual is
    linear in eps to first order, and intertwining stays at rounding.  The
    pair takes the product route; its twin scrambled by ``scramble_seed``
    takes the dense one."""
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=3)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 6, 6)
    if scramble_seed is not None:
        (T1, T2), _ = wl.scramble((T1, T2), scramble_seed)

    def target(eps):
        grown = wl.CircleMeasure(dim=mu1.dim, density=mu1.density,
                                 atoms=tuple((t, (1 + eps) * W) for t, W in mu1.atoms))
        return wl.build_space(grown, mu2, 4, 4)

    # read the residual with the gate itself open
    ungated = replace(wl.DEFAULTS, vmap=np.inf)
    probe = 1e-8
    slope = wl.build_V(T1, T2, target(probe), ungated).info["isometry"] / probe
    goal = multiple * wl.DEFAULTS.vmap
    space = target(goal / slope)
    info = wl.build_V(T1, T2, space, ungated).info
    assert info["isometry"] == pytest.approx(goal, rel=0.01)
    assert max(info["intertwine_1"], info["intertwine_2"]) < 1e-3 * goal
    return lambda tols: wl.build_V(T1, T2, space, tols)


def two_isometry_edge(multiple):
    """certify on M_z with the unit entry that sends degree 3 to degree 4
    times 1 + eps, eps set so that the two-isometry defect is ``multiple``
    times the bound; both degrees lie on the safe core, and the defect is
    linear in eps to first order."""
    S = wl.build_shift_1v(wl.CircleMeasure.from_scalar_atoms([(0.7, 1.0), (2.0, 0.5)]), 8)

    def bent(eps):
        M = S.matrix.copy()
        M[4, 3] *= 1 + eps
        return wl.OperatorModel(S.dom, S.dom, M, core_fn=S.core_fn)

    probe = 1e-8
    slope = wl.two_isometry_defect(bent(probe)) / probe
    goal = multiple * wl.DEFAULTS.two_isometry
    T = bent(goal / slope)
    assert wl.two_isometry_defect(T) == pytest.approx(goal, rel=0.01)
    return lambda tols: wl.certify(T, tols)


def hermitian_edge(multiple):
    """A 2 x 2 atom weight I + eps [[0, 1], [-1, 0]], whose deviation
    max |W - W^H| = 2 eps is ``multiple`` times the tolerance."""
    eps = multiple * wl.DEFAULTS.hermitian / 2
    W = np.eye(2) + eps * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return lambda tols: wl.CircleMeasure(dim=2, atoms=((0.7, W),), tols=tols)


def atom_separation_edge(multiple):
    """Two unit atoms ``multiple`` times the separation apart."""
    gap = multiple * wl.DEFAULTS.atom_separation
    atoms = ((1.0, np.eye(1)), (1.0 + gap, np.eye(1)))
    return lambda tols: wl.CircleMeasure(dim=1, atoms=atoms, tols=tols)


def condition_max_edge(multiple):
    """left_inverse of diag(1, 1, eps) on a Euclidean space, whose
    sigma_max / sigma_min is 1 / eps = ``multiple`` times the bound."""
    sp = EuclideanSpace(3)
    eps = 1 / (multiple * wl.DEFAULTS.condition_max)
    T = wl.OperatorModel(sp, sp, np.diag([1.0, 1.0, eps]))
    return lambda tols: wl.left_inverse(T, tols)


#: field -> (input at a multiple of its default, error, message, whether
#: the 0.5x input passes); a measure comparison raises nothing (no error
#: class), its verdict flips.  ``vmap`` has a row for each route of
#: build_V: a coordinate pair and its scrambled twin
EDGES = {
    "doubly_commuting": (doubly_commuting_edge, wl.AssumptionError, "not doubly commuting", True),
    "isometry": (isometry_edge, wl.AssumptionError, "not an isometry", True),
    "two_isometry": (two_isometry_edge, wl.AssumptionError, "two-isometry defect", True),
    "hermitian": (hermitian_edge, ValueError, "not Hermitian", True),
    "atom_separation": (atom_separation_edge, ValueError, "not separated", False),
    "condition_max": (condition_max_edge, wl.ConvergenceError, "ill conditioned", True),
    "measure_match": (measure_match_edge, (), "", True),
    "vmap": (vmap_edge, wl.ConvergenceError, "model map residuals", True),
    "vmap_scrambled": (lambda multiple: vmap_edge(multiple, scramble_seed=5),
                       wl.ConvergenceError, "model map residuals", True),
}


def passes(call, tols, error, message):
    """Whether the gate accepts the input: the call raises no ``error`` with
    ``message``, and a measure comparison comes back ``True``."""
    try:
        result = call(tols)
    except error as exc:
        assert message in str(exc)
        return False
    return result.equal is True if isinstance(result, MeasureComparison) else True


@pytest.mark.parametrize("field", list(EDGES))
def test_each_gate_flips_between_half_and_twice_its_tolerance(field):
    make, error, message, half_passes = EDGES[field]
    half, twice = make(0.5), make(2.0)
    assert passes(half, wl.DEFAULTS, error, message) is half_passes
    assert passes(twice, wl.DEFAULTS, error, message) is not half_passes
    assert passes(twice, wl.DEFAULTS.scaled(10), error, message) is half_passes
