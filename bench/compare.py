#!/usr/bin/env python3
"""Compare two sides of a benchmark measurement.

    python3 bench/compare.py parent.txt change.txt

Each file holds the standard output of several ``bench/run.py`` runs of
one side, concatenated.  The script refuses (exit 2) to compare runs
whose environment records differ in the mpmath backend, a package
version, the speed kernel's reference time, the workload, the size or
the trace mode, and runs that reported failures.  Otherwise it prints, per
metric, each side's median and quartiles, the change of the medians as
a share of the parent's, and the spread of the parent's own runs
(quartile distance over median).
"""

from __future__ import annotations

import json
import statistics
import sys

SAME = ("python", "numpy", "scipy", "mpmath", "click", "mpmath_backend",
        "speed_ref_s", "setup_speed_ref_s", "workload", "size",
        "trace")


def load(path: str) -> tuple:
    """(environment records, result lines) of one side."""
    envs, results = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "environment" in doc:
                envs.append(doc["environment"])
            elif "metrics" in doc:
                results.append(doc)
    if not results or len(envs) != len(results):
        raise SystemExit(f"{path}: expected one environment record per result")
    return envs, results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in sys.argv[1:]]
    first = sides[0][0][0]
    for envs, results in sides:
        for env in envs:
            diff = [k for k in SAME if env.get(k) != first.get(k)]
            if diff:
                print(f"refusing to compare: {', '.join(diff)} differ "
                      f"({[first.get(k) for k in diff]} vs {[env.get(k) for k in diff]})")
                return 2
        if any(r["failed"] for r in results):
            print("refusing to compare: a run reported failed commands")
            return 2
    (_, before), (_, after) = sides
    print(f"{'metric':32s} {'unit':6s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'spread':>7s}")
    for name, unit in ((k, v["unit"]) for k, v in before[0]["metrics"].items()):
        a = [r["metrics"][name]["value"] for r in before]
        b = [r["metrics"][name]["value"] for r in after if name in r["metrics"]]
        if None in a or None in b or not b:
            print(f"{name:32s} {unit:6s} missing on one side")
            continue
        qa, qb = quartiles(a), quartiles(b)
        delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("nan")
        print(f"{name:32s} {unit:6s} {qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
              f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {delta:+8.2%} {spread:7.2%}")
    print(f"runs: parent {len(before)}, change {len(after)}; "
          f"environment {({k: first.get(k) for k in SAME})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
