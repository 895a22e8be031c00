#!/usr/bin/env python3
"""Exact discovery-count summaries for the two bundled case-study
parameter sets, next to their normal and Borel-Tanner approximations.

Prints one block per study: moments of the exact step-down pmf, the
fixed-point normal approximation, and the limiting Borel parameter.
Writes the full pmfs as CSV when --out-dir is given.
"""
import argparse
import csv
import pathlib
import time

from fdrdist import (
    TestingSetup,
    ThetaParams,
    bh_pmf,
    borel_limit_param,
    normal_approx,
)

STUDIES = {
    "breast-cancer": dict(
        theta=ThetaParams(3, (0.158, 0.0492, 0.0201)), n=3226, alpha=0.05),
    "tcga": dict(
        theta=ThetaParams(4, (0.100, 0.0761, 0.000493, 0.00195)),
        n=20068, alpha=0.05),
}


def run(name, theta, n, alpha, out_dir):
    setup = TestingSetup(n, alpha, theta)
    start = time.perf_counter()
    dist = bh_pmf(setup)
    elapsed = time.perf_counter() - start
    approx = normal_approx(setup)
    print(f"== {name}: n = {n}, alpha = {alpha}, "
          f"theta = {tuple(theta.coeffs)}")
    print(f"   pi0 = theta0 = {theta.theta0:.4f}")
    print(f"   mean = {dist.mean():.4f}   sd = {dist.sd():.4f}   "
          f"Pr[BH=0] = {dist.prob(0):.6f}")
    print(f"   normal approx: mu = {approx.mu:.4f}, sigma = {approx.sigma:.4f}")
    print(f"   borel parameter (large-n limit) = "
          f"{borel_limit_param(theta, alpha):.6f}")
    print(f"   truncated at k = {dist.k_max} (tail {dist.tail_mass:.2e}), "
          f"{elapsed:.2f}s")
    if out_dir is not None:
        path = out_dir / f"{name}_pmf.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "pmf"])
            for k, val in enumerate(dist.pmf):
                writer.writerow([k, "%.17g" % val])
        print(f"   pmf written to {path}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--study", choices=sorted(STUDIES) + ["all"],
                        default="all")
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help="write full pmfs as CSV files here")
    args = parser.parse_args()
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    names = sorted(STUDIES) if args.study == "all" else [args.study]
    for name in names:
        run(name, out_dir=args.out_dir, **STUDIES[name])


if __name__ == "__main__":
    main()
