"""Scenario runner: build instances from a JSON config, run checks, report.

Config schema::

    {
      "instances": [InstanceSpec, ...],
      "tasks": [{"op": <name>, "instance": <index>, "params": {...}, "tol": <float>}, ...]
    }

Each task runs one operation against one instance and is judged against
its tolerance.  The report lists residuals, verdicts and wall times per
task.  A task that raises is recorded as failed, with ``error`` set to
"<exception type>: <message>", and the run goes on.  Exit code 0 means
every task passed, 2 means some task failed its tolerance or raised, 1
means the config (or an instance) was invalid.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from ._blas import one_blas_thread
from .config import DEFAULTS
from .decomp import (
    check_norm_identity,
    check_two_variable_identity,
    measures_equal_up_to_unitary,
    slocinski,
    wold_pair,
    wold_single,
)
from .errors import WoldLabError
from .instances import Instance, InstanceSpec
from .measures import fourier_coefficients
from .operators import doubly_commuting_residual, joint_core, two_isometry_defect


class ConfigError(Exception):
    pass


def _scaled_spec(spec: InstanceSpec, caps_scale: int, seed_override) -> InstanceSpec:
    caps = tuple(int(c * caps_scale) for c in spec.caps)
    seed = spec.seed if seed_override is None else seed_override
    return InstanceSpec(kind=spec.kind, measures=spec.measures, caps=caps,
                        unitary_dims=spec.unitary_dims, seed=seed)


def _flatten_value(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, complex):
        return abs(v)
    return v


# -- task implementations ---------------------------------------------------

def _task_two_isometry_defect(inst: Instance, params, tols):
    residuals = {}
    for i, T in enumerate(inst.operators, start=1):
        residuals[f"defect_{i}"] = float(two_isometry_defect(T, tols=tols))
    return residuals, max(residuals.values())


def _task_doubly_commuting(inst: Instance, params, tols):
    if not inst.is_pair:
        raise ConfigError("doubly_commuting needs a pair instance")
    c1, c2 = doubly_commuting_residual(*inst.operators, tols=tols)
    return {"commuting": float(c1), "star_commuting": float(c2)}, max(c1, c2)


def _task_wold_single(inst: Instance, params, tols):
    if inst.is_pair:
        raise ConfigError("wold_single needs a single-operator instance")
    result = wold_single(inst.operators[0], tols=tols)
    residuals = dict(result.residuals)
    residuals["dim_H0"] = result.H0.dim
    residuals["dim_H1"] = result.H1.dim
    score = max(residuals[k] for k in result.GATED)
    out = result.to_json_dict()
    out["residuals"] = residuals
    return out, score


def _task_round_trip(inst: Instance, params, tols):
    if inst.is_pair:
        raise ConfigError("round_trip needs a single-operator instance")
    K = int(params.get("fourier_order", 8))
    result = wold_single(inst.operators[0], tols=tols)
    truth = inst.truth.get("measures") or (inst.truth.get("measure"),)
    truth = [m for m in truth if m is not None]
    if len(truth) != 1:
        raise ConfigError("round_trip needs an instance built from exactly one measure")
    cmp = measures_equal_up_to_unitary(truth[0], result.extracted, K=K, tols=tols)
    # compare after the alignment the comparison found: extracted = U^H truth U
    U = cmp.unitary if cmp.equal else np.eye(result.extracted.dim)
    aligned = U.conj().T @ fourier_coefficients(truth[0], K) @ U
    diff = aligned - fourier_coefficients(result.extracted, K)
    err = float(np.max(np.abs(diff))) if diff.size else 0.0
    report = {"measure_match": bool(cmp.equal), "fourier_error": err,
              "dim_H0": result.H0.dim, "detail": cmp.detail}
    return report, err if cmp.equal else float("inf")


def _task_wold_pair(inst: Instance, params, tols):
    if not inst.is_pair:
        raise ConfigError("wold_pair needs a pair instance")
    quad = wold_pair(*inst.operators, tols=tols)
    reference = inst.truth.get("measures") if isinstance(inst.truth.get("measures"), dict) else None
    out = quad.to_json_dict(reference_measures=reference,
                            K=int(params.get("fourier_order", 8)), tols=tols)
    score = max(quad.residuals[k] for k in quad.GATED)
    return out, score


def _task_slocinski(inst: Instance, params, tols):
    if not inst.is_pair:
        raise ConfigError("slocinski needs a pair instance")
    quad = slocinski(*inst.operators, tols=tols)
    out = quad.to_json_dict()
    masses = [v for k, v in quad.residuals.items() if k.startswith("mass_")]
    return out, max(masses) if masses else 0.0


def _task_norm_identity(inst: Instance, params, tols):
    count = int(params.get("vectors", 10))
    margin = int(params.get("margin", 4))
    seed = int(params.get("seed", 0))
    rng = np.random.default_rng(seed)
    ops = inst.operators
    if inst.is_pair:
        core = joint_core(*ops, margin, tols)
        check = check_two_variable_identity
    else:
        core = ops[0].core_subspace(margin, tols)
        check = check_norm_identity
    worst = 0.0
    for _ in range(count):
        c = rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim)
        worst = max(worst, check(*ops, core.basis @ c, tols=tols))
    return {"worst_residual": worst, "vectors": count}, worst


TASKS = {
    "two_isometry_defect": _task_two_isometry_defect,
    "doubly_commuting": _task_doubly_commuting,
    "wold_single": _task_wold_single,
    "wold_pair": _task_wold_pair,
    "slocinski": _task_slocinski,
    "round_trip": _task_round_trip,
    "norm_identity": _task_norm_identity,
}


# -- runner -------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, col {exc.colno}): {exc.msg}") from exc
    if not isinstance(raw, dict) or "instances" not in raw or "tasks" not in raw:
        raise ConfigError('config must be an object with "instances" and "tasks"')
    return raw


@one_blas_thread
def run(config_path: str, output_path: str, caps_scale: int = 1, seed=None,
        tol_scale: float = 1.0, fmt: str = "json") -> int:
    tols = DEFAULTS.scaled(tol_scale) if tol_scale != 1.0 else DEFAULTS
    try:
        raw = load_config(config_path)
        specs = []
        for i, item in enumerate(raw["instances"]):
            try:
                specs.append(_scaled_spec(InstanceSpec.from_json_dict(item), caps_scale, seed))
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"instances[{i}]: {exc}") from exc
        digests = [spec.digest() for spec in specs]
        instances = []
        for i, spec in enumerate(specs):
            try:
                instances.append(spec.build())
            except (WoldLabError, ValueError) as exc:
                raise ConfigError(f"instances[{i}] failed to build: {exc}") from exc
        tasks = raw["tasks"]
        for i, task in enumerate(tasks):
            if task.get("op") not in TASKS:
                raise ConfigError(f"tasks[{i}]: unknown op {task.get('op')!r}")
            idx = int(task.get("instance", 0))
            if not 0 <= idx < len(instances):
                raise ConfigError(f"tasks[{i}]: instance index {idx} out of range")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    def run_task(i, task):
        idx = int(task.get("instance", 0))
        tol = float(task.get("tol", tols.decomposition)) * 1.0
        t0 = time.perf_counter()
        entry = {
            "scenario": i,
            "op": task["op"],
            "instance": idx,
            "instance_digest": digests[idx],
            "tol": tol,
        }
        try:
            detail, score = TASKS[task["op"]](instances[idx], task.get("params", {}), tols)
            entry["result"] = detail
            entry["score"] = _flatten_value(score)
            entry["passed"] = bool(score <= tol)
        except Exception as exc:  # one failing task must not abort the run
            entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["passed"] = False
        entry["wall_time_s"] = time.perf_counter() - t0
        return entry

    results = [run_task(i, task) for i, task in enumerate(tasks)]

    report = {
        "config": config_path,
        "caps_scale": caps_scale,
        "tol_scale": tol_scale,
        "tasks": results,
        "all_passed": all(r["passed"] for r in results),
    }
    if fmt == "json":
        with open(output_path, "w") as fh:
            json.dump(report, fh, indent=2, default=_flatten_value)
    else:
        with open(output_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "op", "instance", "instance_digest",
                             "score", "tol", "passed", "wall_time_s", "error"])
            for r in results:
                writer.writerow([r["scenario"], r["op"], r["instance"],
                                 r["instance_digest"], r.get("score", ""),
                                 r["tol"], r["passed"], f"{r['wall_time_s']:.3f}",
                                 r.get("error", "")])
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        extra = r.get("error", f"score={r.get('score', float('nan')):.3e}")
        print(f"[{status}] task {r['scenario']} ({r['op']} on instance {r['instance']}): {extra}")
    return 0 if report["all_passed"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wold-lab",
                                     description="Run decomposition scenarios from a config file.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", required=True)
    runp.add_argument("--caps-scale", type=int, default=1,
                      help="multiply every truncation cap (convergence studies)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the seed of every instance")
    runp.add_argument("--tol-scale", type=float, default=1.0)
    runp.add_argument("--format", choices=["json", "csv"], default="json")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, caps_scale=args.caps_scale, seed=args.seed,
                   tol_scale=args.tol_scale, fmt=args.format)
    return 1


if __name__ == "__main__":
    sys.exit(main())
