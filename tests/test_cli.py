"""The scenario runner: configs, reports, exit codes."""

import json

import numpy as np
import pytest

import woldlab as wl
from woldlab import cli, decomp
from woldlab.cli import main, run

from conftest import scalar_atoms


def write_config(path, instances, tasks):
    with open(path, "w") as fh:
        json.dump({"instances": instances, "tasks": tasks}, fh)
    return str(path)


def unitary_instance():
    return {"kind": "direct_sum", "measures": [], "caps": [8, 0],
            "unitary_dims": [4], "seed": 1}


def test_unitary_wold_single_scenario(tmp_path):
    cfg = write_config(tmp_path / "c.json", [unitary_instance()],
                       [{"op": "wold_single", "instance": 0, "tol": 1e-8}])
    out = tmp_path / "report.json"
    assert run(cfg, str(out)) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert report["tasks"][0]["result"]["residuals"]["dim_H1"] == 0


def test_round_trip_scenario(tmp_path):
    mu = scalar_atoms((0.7, 0.9), (2.9, 0.5), (5.1, 1.3))
    inst = {"kind": "scrambled", "measures": [mu.to_json_dict()],
            "caps": [32, 0], "unitary_dims": [2], "seed": 11}
    cfg = write_config(tmp_path / "c.json", [inst],
                       [{"op": "round_trip", "instance": 0,
                         "params": {"fourier_order": 8}, "tol": 1e-6}])
    out = tmp_path / "r.json"
    assert run(cfg, str(out)) == 0
    report = json.loads(out.read_text())
    assert report["tasks"][0]["result"]["measure_match"] is True


GENERIC_D2 = wl.CircleMeasure(dim=2, atoms=(
    (0.7, np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.6]])),
    (2.9, np.array([[0.5, -0.1j], [0.1j, 0.9]]))))
SCALAR_WEIGHTS_D2 = wl.CircleMeasure(dim=2, atoms=((1.1, 0.8 * np.eye(2)),
                                                   (4.0, 0.5 * np.eye(2))))


@pytest.mark.parametrize("mu, unitary_dims, seed", [
    pytest.param(GENERIC_D2, [1], 11, id="generic-d2"),
    pytest.param(SCALAR_WEIGHTS_D2, [], 12, id="scalar-weights-d2"),
])
def test_round_trip_scores_after_alignment(tmp_path, mu, unitary_dims, seed):
    # a d = 2 measure comes back as U^H mu U; the task must score the
    # difference after that alignment, not the raw one.  With scalar weights
    # every combination of coefficients has a repeated eigenvalue, and any U
    # aligns them.
    inst = {"kind": "scrambled", "measures": [mu.to_json_dict()],
            "caps": [12, 0], "unitary_dims": unitary_dims, "seed": seed}
    cfg = write_config(tmp_path / "c.json", [inst],
                       [{"op": "round_trip", "instance": 0,
                         "params": {"fourier_order": 8}, "tol": 1e-6}])
    out = tmp_path / "r.json"
    assert run(cfg, str(out)) == 0
    task = json.loads(out.read_text())["tasks"][0]
    assert task["passed"] and task["result"]["measure_match"] is True
    assert task["score"] < 1e-12


def test_tol_scale_reaches_wold_pair_verdicts(tmp_path, monkeypatch):
    seen = []
    compare = decomp.measures_equal_up_to_unitary

    def spy(a, b, K=8, tols=wl.DEFAULTS):
        seen.append(tols)
        return compare(a, b, K=K, tols=tols)

    monkeypatch.setattr(decomp, "measures_equal_up_to_unitary", spy)
    mu1, mu2 = scalar_atoms((0.7, 0.9), (2.9, 0.5)), scalar_atoms((1.3, 0.8))
    inst = {"kind": "pair2v", "measures": [mu1.to_json_dict(), mu2.to_json_dict()],
            "caps": [6, 3], "unitary_dims": [], "seed": 0}
    cfg = write_config(tmp_path / "c.json", [inst],
                       [{"op": "wold_pair", "instance": 0,
                         "params": {"fourier_order": 8}, "tol": 1e-6}])
    out = tmp_path / "r.json"
    assert run(cfg, str(out), tol_scale=10) == 0
    assert seen == [wl.DEFAULTS.scaled(10)] * 2
    verdicts = json.loads(out.read_text())["tasks"][0]["result"]["verdicts"]
    assert {k: v["equal"] for k, v in verdicts.items()} == {"eta1": True, "eta2": True}


def test_decomposition_tasks_score_every_gated_residual():
    # every residual the decomposition gates at tols.decomposition, with the
    # invariance and unitarity entries of each block
    mu = scalar_atoms((0.7, 0.9), (2.9, 0.5))
    single = wl.make_single_wold_instance(2, mu, 12, seed=1, scramble_seed=2)
    out, score = cli._task_wold_single(single, {}, wl.DEFAULTS)
    for key in ("orthogonality", "completeness", "wandering", "H0_unitarity",
                "H0_invariance", "H1_invariance"):
        assert score >= out["residuals"][key], key
    pair = wl.make_four_block_instance(2, mu, 6, scalar_atoms((1.3, 0.8)), 5,
                                       *wl.random_measure_pair(1, 2, seed=3), (4, 3),
                                       seed=4, scramble_seed=5)
    out, score = cli._task_wold_pair(pair, {}, wl.DEFAULTS)
    assert all(out["block_dims"])
    for key in ("orthogonality", "completeness", "invariance", "kernel_reducing", "E2_leak",
                "unitarity_H00_T1", "unitarity_H00_T2", "unitarity_H01_T1", "unitarity_H10_T2"):
        assert score >= out["residuals"][key], key


def test_negative_weight_config_exits_one(tmp_path, capsys):
    bad = {"kind": "shift1v", "caps": [8, 0], "unitary_dims": [], "seed": 0,
           "measures": [{"dim": 1, "atoms": [{"angle": 0.5, "weight_re": [[-1.0]],
                                              "weight_im": [[0.0]]}],
                         "density_re": [[0.0]], "density_im": [[0.0]]}]}
    cfg = write_config(tmp_path / "c.json", [bad],
                       [{"op": "wold_single", "instance": 0, "tol": 1e-8}])
    code = run(cfg, str(tmp_path / "r.json"))
    assert code == 1
    err = capsys.readouterr().err
    assert "positive" in err


def test_failed_tolerance_exits_two(tmp_path):
    mu = scalar_atoms((0.7, 0.9))
    inst = {"kind": "shift1v", "measures": [mu.to_json_dict()], "caps": [8, 0],
            "unitary_dims": [], "seed": 0}
    cfg = write_config(tmp_path / "c.json", [inst],
                       [{"op": "two_isometry_defect", "instance": 0, "tol": 1e-30}])
    assert run(cfg, str(tmp_path / "r.json")) == 2


def test_malformed_config_exits_one(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    assert run(str(p), str(tmp_path / "r.json")) == 1
    p2 = tmp_path / "c2.json"
    p2.write_text(json.dumps({"instances": []}))
    assert run(str(p2), str(tmp_path / "r.json")) == 1
    cfg = write_config(tmp_path / "c3.json", [unitary_instance()],
                       [{"op": "no_such_op", "instance": 0}])
    assert run(cfg, str(tmp_path / "r.json")) == 1
    cfg = write_config(tmp_path / "c4.json", [unitary_instance()],
                       [{"op": "wold_single", "instance": 5}])
    assert run(cfg, str(tmp_path / "r.json")) == 1


def test_unexpected_exception_is_reported_and_run_goes_on(tmp_path):
    mu = scalar_atoms((0.7, 0.9))
    inst = {"kind": "shift1v", "measures": [mu.to_json_dict()], "caps": [8, 0],
            "unitary_dims": [], "seed": 0}
    tasks = [{"op": "two_isometry_defect", "instance": 0, "tol": 1e-8},
             {"op": "norm_identity", "instance": 0, "params": {"vectors": [1]}}]
    cfg = write_config(tmp_path / "c.json", [inst], tasks)
    out = tmp_path / "r.json"
    assert run(cfg, str(out)) == 2
    good, bad = json.loads(out.read_text())["tasks"]
    assert good["passed"] and "error" not in good
    assert not bad["passed"] and bad["error"].startswith("TypeError: ")


def test_report_determinism_modulo_walltime(tmp_path):
    mu = scalar_atoms((0.7, 0.9))
    inst = {"kind": "scrambled", "measures": [mu.to_json_dict()], "caps": [12, 0],
            "unitary_dims": [2], "seed": 3}
    tasks = [{"op": "wold_single", "instance": 0, "tol": 1e-6},
             {"op": "two_isometry_defect", "instance": 0, "tol": 1e-8}]
    cfg = write_config(tmp_path / "c.json", [inst], tasks)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(cfg, str(out1)) == 0
    assert run(cfg, str(out2)) == 0

    def strip(path):
        rep = json.loads(path.read_text())
        for t in rep["tasks"]:
            t.pop("wall_time_s")
        return rep

    assert strip(out1) == strip(out2)


def test_csv_format(tmp_path):
    cfg = write_config(tmp_path / "c.json", [unitary_instance()],
                       [{"op": "wold_single", "instance": 0, "tol": 1e-8}])
    out = tmp_path / "r.csv"
    assert run(cfg, str(out), fmt="csv") == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,op,instance")
    assert len(lines) == 2


def test_caps_scale(tmp_path):
    mu = scalar_atoms((0.7, 0.9))
    inst = {"kind": "shift1v", "measures": [mu.to_json_dict()], "caps": [8, 0],
            "unitary_dims": [], "seed": 0}
    cfg = write_config(tmp_path / "c.json", [inst],
                       [{"op": "wold_single", "instance": 0, "tol": 1e-6}])
    out = tmp_path / "r.json"
    assert run(cfg, str(out), caps_scale=2) == 0
    report = json.loads(out.read_text())
    assert report["tasks"][0]["result"]["residuals"]["dim_H1"] == 17


def test_seed_override_changes_instance(tmp_path):
    mu = scalar_atoms((0.7, 0.9))
    inst = {"kind": "scrambled", "measures": [mu.to_json_dict()], "caps": [8, 0],
            "unitary_dims": [1], "seed": 3}
    cfg = write_config(tmp_path / "c.json", [inst],
                       [{"op": "wold_single", "instance": 0, "tol": 1e-6}])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(cfg, str(out1)) == 0
    assert run(cfg, str(out2), seed=99) == 0
    d1 = json.loads(out1.read_text())["tasks"][0]["instance_digest"]
    d2 = json.loads(out2.read_text())["tasks"][0]["instance_digest"]
    assert d1 != d2


def test_main_entry_point(tmp_path):
    cfg = write_config(tmp_path / "c.json", [unitary_instance()],
                       [{"op": "wold_single", "instance": 0, "tol": 1e-8}])
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r.json"),
                 "--format", "json"])
    assert code == 0
