"""Tests of the benchmark's own arithmetic, accounting and tracing.

Run with ``python -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import scenario
import tracing

import woldlab as wl
from woldlab import cli, decomp, operators
from woldlab.oracle import quadrature_poisson

ROOT = Path(__file__).resolve().parents[2]


# -- Fourier coefficients ------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_fourier_formula_matches_oracle_poisson(d):
    """sum_n mu_hat(n) r^|n| e^{int} is the Poisson integral the oracle evaluates."""
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    atoms = [(a, (basis * rng.uniform(0.3, 1.2, d)) @ basis.conj().T)
             for a in (0.4, 2.2, 5.0)]
    density = 0.7 * np.eye(d)
    mu = wl.CircleMeasure(dim=d, atoms=tuple(atoms), density=density)
    for z in (0.5 * np.exp(1.3j), -0.3 + 0.2j, 0.0):
        r, t = abs(z), np.angle(z)
        series = sum(checks.fourier(atoms, density, n) * r ** abs(n) * np.exp(1j * n * t)
                     for n in range(-120, 121))
        assert np.max(np.abs(series - quadrature_poisson(mu, z))) < 1e-12


def test_fourier_error_sees_a_moved_atom():
    truth = ([(1.0, np.array([[0.5]]))], np.zeros((1, 1)))
    moved = ([(1.0 + 1e-3, np.array([[0.5]]))], np.zeros((1, 1)))
    assert checks.fourier_error(truth, truth) == 0.0
    assert checks.fourier_error(truth, moved) > 1e-4


# -- projector distance ------------------------------------------------------------

def _gram(D, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return A.conj().T @ A + np.eye(D)


def test_projector_distance_on_known_subspaces():
    D = 6
    G = _gram(D)
    R = np.linalg.cholesky(G).conj().T           # G = R^H R
    Rinv = np.linalg.inv(R)
    u = np.eye(D)                                 # whitened orthonormal directions
    theta = 0.3
    span1 = Rinv @ u[:, :1]                       # Gram-orthonormal
    rotated = Rinv @ (np.cos(theta) * u[:, :1] + np.sin(theta) * u[:, 1:2])
    complement = Rinv @ u[:, 1:]
    assert checks.projector_distance(G, span1, 5.0 * span1) < 1e-12
    assert abs(checks.projector_distance(G, rotated, span1) - np.sin(theta)) < 1e-12
    assert abs(checks.projector_distance(G, complement, span1) - 1.0) < 1e-12
    assert checks.projector_distance(G, np.zeros((D, 0)), np.zeros((D, 0))) == 0.0
    with pytest.raises(checks.WrongOutput):
        checks.projector_distance(G, 2.0 * span1, span1)


# -- failure accounting ------------------------------------------------------------

def _report(passed):
    return {"tasks": [{"scenario": i, "op": "round_trip", "passed": p, "score": 1.0}
                      for i, p in enumerate(passed)]}


def test_failure_accounting():
    assert checks.count_failures(_report([True, False, True, False]), {1, 3}) == 2
    assert checks.count_failures(_report([True, True]), {1}) == 0
    with pytest.raises(checks.WrongOutput):
        checks.count_failures(_report([False, True, False]), {2})


def test_named_round_trip_tasks_are_the_ones_that_fail(tmp_path):
    config, _, failing = scenario.make_config(5)
    assert len(failing) == 2
    assert all(config["tasks"][i]["op"] == "round_trip" for i in failing)
    assert {config["tasks"][i]["instance"] for i in failing} == set(scenario.FAULTY_INSTANCES)
    # the two faulty tasks alone, through `wold-lab run`
    sub = {"instances": config["instances"],
           "tasks": [config["tasks"][i] for i in sorted(failing)]}
    path, out = tmp_path / "c.json", tmp_path / "r.json"
    path.write_text(json.dumps(sub))
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert [t["passed"] for t in report["tasks"]] == [False, False]
    generic, scalar_weights = report["tasks"]
    assert generic["result"]["measure_match"] is True and generic["score"] > 1e-3
    assert scalar_weights["score"] == float("inf")


# -- tracing -------------------------------------------------------------------------

def _small_operator():
    mu = wl.CircleMeasure.from_scalar_atoms([(0.5, 0.8), (2.0, 1.3)])
    return wl.build_shift_1v(mu, 8)


def test_wrapper_on_defining_module_alone_misses_calls_from_decomp(monkeypatch):
    calls = []
    original = operators.two_isometry_defect

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "two_isometry_defect", counting)
    decomp.wold_single(_small_operator())
    assert calls == []


def test_tracer_catches_calls_from_inside_decomp_and_cli(tmp_path):
    T = _small_operator()
    original = decomp.wold_single
    tracer = tracing.Tracer()
    with tracer:
        assert decomp.wold_single is not original and cli.wold_single is not original
        decomp.wold_single(T)
    assert decomp.wold_single is original and cli.wold_single is original
    names = [s[0] for s in tracer.spans]
    top = names.index("decomp.wold_single")
    inner = [s for s in tracer.spans if s[0] == "operators.two_isometry_defect"]
    assert inner and all(s[3] >= top for s in inner)
    assert "decomp.stable_range" in names and "space.HilbertSpace.whiten" in names

    config = {"instances": [{"kind": "shift1v", "caps": [8, 0],
                             "measures": [{"dim": 1, "atoms": [{"angle": 0.5, "weight_re": [[0.8]],
                                                                "weight_im": [[0.0]]}]}]}],
              "tasks": [{"op": "wold_single", "instance": 0}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    tracer = tracing.Tracer()
    with tracer:
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")])
    spans = tracer.spans
    single = [i for i, s in enumerate(spans) if s[0] == "decomp.wold_single"]
    assert len(single) == 1
    parent = spans[single[0]][3]
    ancestors = set()
    while parent >= 0:
        ancestors.add(spans[parent][0])
        parent = spans[parent][3]
    assert {"cli.main", "cli.run"} <= ancestors


def test_summary_self_time_and_outermost_inclusive_time():
    spans = [["decomp.a", 0.0, 10.0, -1, None],
             ["operators.b", 1.0, 4.0, 0, None],
             ["operators.b", 2.0, 3.0, 1, None],
             ["space.c", 5.0, 6.0, 0, None]]
    s = tracing.summarize(spans)
    assert s["incl"]["operators.b"] == 3.0 and s["calls"]["operators.b"] == 2
    assert s["layer_self"]["decomp"] == 6.0
    assert s["layer_self"]["operators"] == 3.0
    assert s["layer_incl"]["operators"] == 3.0


def test_growth_slope_of_a_power_law():
    spans = [["decomp.wold_single", 0.0, 2.0 * D ** 2, -1, D] for D in (10, 20, 40)]
    assert abs(tracing.growth_slope(spans, "decomp.wold_single") - 2.0) < 1e-12
    assert tracing.growth_slope(spans[:1], "decomp.wold_single") == 0.0


# -- the descriptor ------------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
