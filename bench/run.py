#!/usr/bin/env python3
"""fdrdist benchmark: the command BENCHMARK.json names.

Run from the root of a source checkout:

    python3 bench/run.py --workload case-studies --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it writes the workload's input files, then starts
fresh single-threaded Python processes that each import ``fdrdist.cli``
from ``src`` and run one pass over the workload's CLI commands
in-process, as many as fit in ``--seconds`` and at least one.  Once
they have exited it checks every command's document and times several
fresh ``import fdrdist.cli`` processes.  It prints an environment record
and, as the last line, the result: ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics.  With ``--trace 1`` it runs
one untraced and one traced pass, and the metrics are the per-layer
ones; the workload-specific layer metrics are printed on the line
before.

``--self-check`` runs the tiny size of every workload, traced and
untraced, plus one run against a deliberately wrong reference that must
fail; it exits 0 only if all of that behaves.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
NPROC = len(os.sched_getaffinity(0))
DEADLINE_S = 170          # one measurement, all its processes included
_deadline = time.monotonic() + DEADLINE_S
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_MODULES = {
    "import.fdrdist_s": "fdrdist",
    "import.count_dist_s": "fdrdist.count_dist",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.mpmath_s": "mpmath",
    "import.click_s": "click",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def start_clock():
    global _deadline
    _deadline = time.monotonic() + DEADLINE_S


def remaining_s() -> float:
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"benchmark exceeded {DEADLINE_S} s")
    return left


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def references(wrong: bool = False) -> dict:
    """references.json; with ``wrong``, its deliberately wrong entry
    replaces the value it names."""
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    if wrong:
        w = refs["deliberately_wrong"]
        refs[w["size"]][w["label"]][w["field"]] = w["value"]
    return refs


def run_child(args, trace: int, workdir: str) -> dict:
    """One fresh workload process, one pass over the commands."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--size", args.size,
           "--seed", str(args.seed), "--trace", str(trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=remaining_s())
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join("src", "fdrdist", "__init__.py")
    if out["environment"]["fdrdist_file"] != expected:
        raise BenchError(f"imported {out['environment']['fdrdist_file']}, not {expected}")
    return out


def run_passes(args, trace: int) -> tuple:
    """(passes, input p-values).  Untraced: fresh processes, one pass
    each, while another pass still fits in --seconds, and at least one.
    Traced: one untraced and one traced pass."""
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        data = workloads.write_inputs(args.workload, args.size, args.seed, workdir)
        if trace:
            return [run_child(args, 0, workdir), run_child(args, 1, workdir)], data
        passes = [run_child(args, 0, workdir)]
        while (sum(p["raw_pass_s"] for p in passes) * (len(passes) + 1) / len(passes)
               <= args.seconds):
            passes.append(run_child(args, 0, workdir))
        return passes, data
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_passes(args, passes, data, refs) -> list:
    """Check every command's document of every pass: the failures."""
    commands = workloads.build(args.workload, args.size, args.seed, "")
    failures = []
    for p in passes:
        for cmd, (doc, problem) in zip(commands, p["results"], strict=True):
            problems = [problem] if problem else checks.check(cmd, doc, refs, args.size, data)
            if problems:
                failures.append({"label": cmd.label, "problems": problems})
    return failures


def _python(*flags_and_code) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags_and_code], env=child_env(),
                          capture_output=True, text=True, timeout=remaining_s(),
                          check=True)


def setup_seconds() -> tuple:
    """Median wall time of fresh processes that only import fdrdist.cli:
    (at the reference speed of speed.py, raw)."""
    scaled, raw = [], []
    k_before = speed.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        _python("-c", "import fdrdist.cli")
        dt = time.perf_counter() - t0
        k_after = speed.sample()
        scaled.append(speed.scaled(dt, k_before, k_after))
        raw.append(dt)
        k_before = k_after
    return statistics.median(scaled), statistics.median(raw)


def package_import_s(report: str, package: str) -> float:
    """Cumulative import time of ``package`` and its submodules from a
    -X importtime report.  The report is post-order with nesting shown
    by indentation, and a lazily loaded package such as scipy.optimize
    may have no line of its own, so this sums the outermost lines that
    belong to the package.  A package that was not imported reads 0."""
    entries = []
    for line in report.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1)) * 1e-6))
    total, ancestors = 0.0, []
    for depth, name, cumulative in reversed(entries):  # parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(inside for _, inside in ancestors):
            total += cumulative
        ancestors.append((depth, mine))
    return total


def import_times() -> dict:
    """Cumulative import times from -X importtime, median of 3 processes."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(3):
        report = _python("-X", "importtime", "-c", "import fdrdist.cli").stderr
        for name, package in IMPORT_MODULES.items():
            samples[name].append(package_import_s(report, package))
    return {name: {"value": statistics.median(v), "unit": "s"}
            for name, v in samples.items()}


def measure(args, refs: dict) -> tuple:
    """(environment record, detail or None, result line)."""
    start_clock()
    load_before = os.getloadavg()
    passes, data = run_passes(args, args.trace)
    failures = check_passes(args, passes, data, refs)
    if args.trace:
        base, traced = passes
        metrics = {**traced["generic"], **import_times()}
        metrics["trace.overhead_s"] = {"value": traced["pass_s"] - base["pass_s"],
                                       "unit": "s"}
        detail = {**traced["detail"], "missing_rebinds": traced["missing_rebinds"]}
        raw = {"raw_pass_s": {"untraced": base["raw_pass_s"],
                              "traced": traced["raw_pass_s"]}}
    else:
        setup_s, raw_setup_s = setup_seconds()
        metrics = {
            "wall_s": {"value": statistics.median(p["pass_s"] for p in passes),
                       "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
        detail = None
        raw = {"raw_wall_s": statistics.median(p["raw_pass_s"] for p in passes),
               "raw_setup_s": raw_setup_s}
    env = {
        **passes[0]["environment"],
        "nproc": NPROC,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "setup_speed_ref_s": speed.REF_S,
        **raw,
        "threads_pinned": {var: "1" for var in THREAD_VARS},
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes),
        "failures": failures,
    }
    attempted = sum(len(p["results"]) for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return env, detail, result


def self_check() -> int:
    """Tiny runs of every workload must pass; a wrong reference must fail."""
    ok = True
    declared = None
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
    for name in workloads.NAMES:
        for trace in (0, 1):
            a = argparse.Namespace(workload=name, size="tiny", seed=7, seconds=1.0,
                                   trace=trace)
            env, _, result = measure(a, references())
            names = set(result["metrics"])
            if declared is not None:
                key = "per_layer" if trace else "end_to_end"
                want = {m["name"] for m in declared[key]}
                if names != want:
                    ok = False
                    print(f"{name} trace={trace}: metrics {sorted(names ^ want)} "
                          "differ from BENCHMARK.json")
            good = result["correct"] and result["failed"] == 0
            ok &= good
            print(f"{name:13s} tiny trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}" + ("" if good else f" {env['failures']}"))
    a = argparse.Namespace(workload="case-studies", size="tiny", seed=7, seconds=1.0,
                           trace=0)
    _, _, result = measure(a, references(wrong=True))
    live = result["failed"] > 0
    ok &= live
    print(f"wrong reference: failed {result['failed']} of {result['attempted']}"
          + (" (checks are live)" if live else " -- CHECKS ARE NOT LIVE"))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "fdrdist", "cli.py")):
        print("error: run from the root of an fdrdist checkout (no src/fdrdist/cli.py)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # one CPU for this process, the workload process and the import
    # probes, so the speed kernel runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        env, detail, result = measure(args, references())
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": env}))
    if detail is not None:
        print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
