"""Benchmark of woldlab: time to a certified Wold decomposition.

Run one workload::

    python3 perfbench/run.py --workload single_ladder --seed 1 --seconds 15 --trace 0

or all four, each in a fresh process, with ``--workload all``.  A run
repeats whole rounds (set-up, then the fixed set of operations, then the
checks against the benchmark's own ground truth) until ``--seconds`` have
passed, and reports medians over the rounds.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds and prints the per-layer metrics.  The last line of standard
output is one JSON object; every run also appends a record with the BLAS
set-up to ``perfbench/out/results.jsonl`` (see ``compare.py``).

BLAS threading is left as the process gets it: the benchmark neither sets
nor passes on OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("single_ladder", "pair_fourblock", "identities", "scenario_batch")

#: (name, unit) of the end-to-end metrics, all measured on untraced rounds
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("cpu_s", "core-s"),
              ("peak_rss_mb", "MB"), ("cert_digits", "digits"), ("truth_digits", "digits"))

#: set-ups timed per untraced round; the last one's inputs are solved
SETUP_REPEATS = 5

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def per_layer_units() -> dict:
    """Unit of every per-layer metric, by name."""
    import tracing
    names = list(tracing.layer_metrics(tracing.summarize([]), [], 1))
    names += ["cli.tasks_s", "cli.overhead_s", "process.cpu_per_wall", "trace.overhead_s"]
    units = {}
    for name in names:
        if name.endswith("_calls"):
            units[name] = "count"
        elif name.endswith("_growth"):
            units[name] = "slope"
        elif name == "process.cpu_per_wall":
            units[name] = "core-s/s"
        else:
            units[name] = "s"
    return units


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def env_info() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas_env": {k: os.environ.get(k) for k in _BLAS_ENV},
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_workload(name: str, seed: int, seconds: float, trace: bool, jobs: int, workdir: str) -> dict:
    import checks
    import tracing
    import workloads

    wl = workloads.make(name, seed, workdir, jobs)
    tracer = tracing.Tracer()
    setup_s, solve_s, cpu_s, traced_solve, tasks_s = [], [], [], [], []
    cert, truth = [0.0], [0.0]
    attempted = failed = 0
    start = time.perf_counter()
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 1
        if traced:
            tracer.install()
        try:
            for _ in range(1 if traced else SETUP_REPEATS):
                inputs = None
                gc.collect()
                t0 = time.perf_counter()
                inputs = wl.setup()
                t_setup = time.perf_counter() - t0
                if not traced:
                    setup_s.append(t_setup)
            gc.collect()
            c0, t0 = _cpu(), time.perf_counter()
            out = wl.solve(inputs)
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
        finally:
            tracer.uninstall()
        oc = wl.check(inputs, out)
        inputs = out = None
        worst = max(oc.truth, default=0.0)
        checks.require(worst < checks.TRUTH_TOL, f"error {worst:.3e} against the ground truth")
        attempted += oc.attempted
        failed += oc.failed
        cert += oc.cert
        truth += oc.truth
        if traced:
            traced_solve.append(wall)
        else:
            solve_s.append(wall)
            cpu_s.append(cpu)
            tasks_s.append(oc.cli_tasks_s)
        rnd += 1
        if time.perf_counter() - start >= seconds and (not trace or rnd >= 2):
            break

    med = statistics.median
    e2e = {
        "setup_s": med(setup_s),
        "solve_s": med(solve_s),
        "cpu_s": med(cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cert_digits": checks.digits(max(cert)),
        "truth_digits": checks.digits(max(truth)),
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "jobs": jobs, "rounds": rnd, "attempted": attempted, "failed": failed,
              "samples": {"setup_s": setup_s, "solve_s": solve_s, "cpu_s": cpu_s,
                          "traced_solve_s": traced_solve},
              "end_to_end": e2e}
    if trace:
        layers = tracing.layer_metrics(tracing.summarize(tracer.spans), tracer.spans,
                                       len(traced_solve))
        layers["cli.tasks_s"] = med(tasks_s)
        layers["cli.overhead_s"] = med(s - t for s, t in zip(solve_s, tasks_s)) if any(tasks_s) else 0.0
        layers["process.cpu_per_wall"] = e2e["cpu_s"] / e2e["solve_s"]
        layers["trace.overhead_s"] = med(traced_solve) - e2e["solve_s"]
        record["per_layer"] = layers
    return record


def _result_line(record: dict) -> dict:
    if record["trace"]:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["end_to_end"].items()}
    return {"correct": True, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--jobs", str(args.jobs), "--results", args.results]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="--jobs passed to wold-lab run (scenario_batch only)")
    parser.add_argument("--results", default=str(HERE / "out" / "results.jsonl"),
                        help="file the run record is appended to")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        import woldlab  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import woldlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import checks

    out_dir = Path(args.results).resolve().parent
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.jobs, workdir)
    except checks.WrongOutput as exc:
        print(f"perfbench: {args.workload}: wrong output: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = env_info()
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    line = _result_line(record)
    print(f"# {args.workload} seed {args.seed}: {record['rounds']} rounds, "
          f"attempted {line['attempted']}, failed {line['failed']}")
    print(f"# env {json.dumps(record['env'])}")
    for name, m in line["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
