"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that ``run.py`` appended (``--results``); only
untraced runs are read.  For each workload and each end-to-end metric of
BENCHMARK.json the table gives both sides' median and quartiles over their
runs and a verdict:

* ``unresolved``: the spread (quartile distance over median) of either side
  exceeds the metric's bound, so the runs cannot tell;
* ``worse``: the new median is worse than the base median by more than the bound;
* ``better``: the new median is better by more than the base's own spread;
* ``within bound``: none of the above.

The last column of each workload gives the share of failed operations with
its base (failed / attempted over all runs of that side).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """Untraced records of a results file, grouped by workload."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better: str, bound: float) -> str:
    (b1, bm, b3), (n1, nm, n3) = quartiles(base), quartiles(new)
    base_spread = (b3 - b1) / abs(bm)
    if max(base_spread, (n3 - n1) / abs(nm)) > bound:
        return "unresolved"
    worse_by = (nm - bm) / abs(bm) * (1 if better == "lower" else -1)
    if worse_by > bound:
        return "worse"
    if -worse_by > base_spread:
        return "better"
    return "within bound"


def compare(base: dict, new: dict, spec: dict) -> list:
    """Rows (workload, metric, base quartiles, new quartiles, verdict, failed shares)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        shares = []
        for side in (base[workload], new[workload]):
            failed = sum(r["failed"] for r in side)
            attempted = sum(r["attempted"] for r in side)
            shares.append(f"{failed}/{attempted} ({100.0 * failed / attempted:.2f}%)")
        for m in spec["end_to_end"]:
            a = [r["end_to_end"][m["name"]] for r in base[workload]]
            b = [r["end_to_end"][m["name"]] for r in new[workload]]
            rows.append((workload, m["name"], m["unit"], quartiles(a), quartiles(b),
                         verdict(a, b, m["better"], m["bound"]), shares))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(load(args.base), load(args.new), spec)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 1
    fmt = "{:<15} {:<13} {:<7} {:>32} {:>32}  {}"
    print(fmt.format("workload", "metric", "unit", "base q1 / median / q3",
                     "new q1 / median / q3", "verdict"))
    last = None
    for workload, metric, unit, qa, qb, v, shares in rows:
        if workload != last:
            print(f"-- {workload}: failed base {shares[0]}, new {shares[1]}")
            last = workload
        print(fmt.format(workload, metric, unit, " / ".join(f"{x:.5g}" for x in qa),
                         " / ".join(f"{x:.5g}" for x in qb), v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
