#!/usr/bin/env python3
"""Record the reference values the checks compare against.

    PYTHONPATH=src python3 bench/make_references.py --commit <id> > bench/references.json

Runs every deterministic workload command, at both sizes, through the
CLI of the checkout it is run in, and the exact pmfs that the Monte
Carlo commands are tested against.  Only the fields the checks read are
kept.  Regenerate only at a commit whose numbers are trusted, and name
it with --commit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fdrdist.cli as cli  # noqa: E402
from fdrdist import (  # noqa: E402
    TestingSetup, ThetaParams, bh_pmf, bonferroni_pmf_copula, latent_bh_pmf,
)

import workloads  # noqa: E402
from child import run_command  # noqa: E402

FIELDS = ("mean", "sd", "pr_zero", "k_max", "normal_mu", "normal_sigma",
          "correlation", "rows")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--commit", required=True)
    args = ap.parse_args()
    refs = {"commit": args.commit}
    for size in workloads.SIZES:
        refs[size] = {}
        for name in ("case-studies", "power-grid"):
            commands = workloads.build(name, size, 0, "")
            for cmd in commands:
                if not cmd.ref:
                    continue
                doc, problem = run_command(cli, cmd.args)
                if problem:
                    sys.exit(f"{cmd.label}: {problem}")
                res = doc["result"]
                refs[size][cmd.ref] = {k: res[k] for k in FIELDS if k in res}
    bc = ThetaParams(3, workloads.BC)
    setup = TestingSetup(200, 0.05, bc)
    exact = {
        "uniform": bh_pmf(TestingSetup(200, 0.05)),
        "fitted": bh_pmf(setup),
        "latent": latent_bh_pmf(setup, workloads.EPS_HALF),
        "copula": bonferroni_pmf_copula(setup, 1.3),
    }
    refs["exact"] = {k: {"pmf": [float(p) for p in d.pmf]} for k, d in exact.items()}
    ref = refs["tiny"]["bh-dist.bc"]
    refs["deliberately_wrong"] = {"size": "tiny", "label": "bh-dist.bc",
                                  "field": "mean", "value": ref["mean"] * (1 + 1e-6)}
    json.dump(refs, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
