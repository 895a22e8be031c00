"""One workload process: import fdrdist.cli, run one pass over the
workload's commands in-process, one after another (a closed loop with
one client), and print one JSON line for bench/run.py with every
command's parsed document.  A CLI user pays first-call costs in every
process, so each timed pass is the first of a fresh process.

The documents are checked by run.py after this process has exited, so
the checks' own imports (scipy) and oracle solves are neither timed nor
part of this process's memory: a change that drops or defers an import
of the package shows in ``wall_s`` and ``peak_rss_mb``.

Not meant to be run by hand; run.py starts it in a fresh interpreter
with the thread pools pinned, ``src`` on the path and the input files
already written to ``--workdir``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import resource
import sys
import time


def run_command(cli, args):
    """(document, problem): exactly one of the two is None."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(list(args), standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return None, f"exited with code {exc.code}"
    except Exception as exc:  # a failing command is counted, not fatal
        return None, f"raised {type(exc).__name__}: {exc}"
    try:
        return json.loads(buf.getvalue()), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def environment() -> dict:
    import mpmath.libmp

    versions = {name: importlib.metadata.version(name)
                for name in ("numpy", "scipy", "mpmath", "click")}
    return {
        "python": sys.version.split()[0],
        **versions,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "fdrdist_file": os.path.relpath(sys.modules["fdrdist"].__file__),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import fdrdist.cli as cli

    import speed
    import workloads

    commands = workloads.build(args.workload, args.size, args.seed, args.workdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    meter = speed.SpeedMeter()
    marks, results = [], []       # per command: (start, end) and (doc, problem)
    with meter:
        for cmd in commands:
            t0 = time.perf_counter()
            span = tracer.begin("cli.command") if tracer else None
            results.append(run_command(cli, cmd.args))
            if span is not None:
                tracer.end(span)
                span["label"] = cmd.base_label
            marks.append((t0, time.perf_counter()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    split = [meter.interval(a, b) for a, b in marks]
    out = {
        "results": results,
        "pass_s": sum(s for _, s in split),
        "raw_pass_s": sum(r for r, _ in split),
        "peak_rss_mb": peak_rss_mb,
        "environment": {**environment(), "speed_ref_s": speed.REF_S},
    }
    if tracer:
        for span in tracer.spans:
            span["dur"] = meter.interval(span["start"], span["end"])[1]
        docs = [doc for doc, _ in results]
        generic, detail = tracing.span_metrics(
            tracer.spans, tracer.missing, commands, docs, out["pass_s"])
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "references.json"), encoding="utf-8") as fh:
            full = json.load(fh)["full"]
        with speed.SpeedMeter() as probe_meter:
            generic.update(tracing.probes(full["bh-dist.bc"]["k_max"],
                                          full["bh-dist.tcga"]["k_max"], probe_meter))
        out["generic"] = generic
        out["detail"] = detail
        out["missing_rebinds"] = sorted(tracer.missing)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
