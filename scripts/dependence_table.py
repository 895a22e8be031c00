#!/usr/bin/env python3
"""Sensitivity of the discovery-count distribution to latent
exchangeable dependence.

Sweeps the perturbation scale z, with eps = z * sigma, and prints the
exact mean, SD, zero-count probability, and induced pairwise p-value
correlation at each level.  z = 0 is the independent baseline.
"""
import argparse

from fdrdist import (
    TestingSetup,
    ThetaParams,
    latent_bh_pmf,
    latent_pvalue_correlation,
)


def _floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3226)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--theta", type=_floats, default=(0.158, 0.0492, 0.0201),
                        help="marginal coefficients theta_1..theta_I")
    parser.add_argument("--sigma", type=_floats, default=(0.084, 0.0506, 0.0075),
                        help="per-coefficient perturbation base")
    parser.add_argument("--z-list", type=_floats, default=(0.0, 0.25, 0.5, 0.75),
                        help="comma-separated perturbation scales")
    args = parser.parse_args()

    theta = ThetaParams(len(args.theta), args.theta)
    if len(args.sigma) != len(args.theta):
        parser.error("--sigma and --theta must have the same length")
    setup = TestingSetup(args.n, args.alpha, theta)

    print(f"n = {args.n}, alpha = {args.alpha}, theta = {args.theta}, "
          f"sigma = {args.sigma}")
    print(f"{'z':>6} {'corr':>9} {'mean':>9} {'sd':>9} {'Pr[BH=0]':>9}")
    for z in args.z_list:
        eps = tuple(z * s for s in args.sigma)
        dist = latent_bh_pmf(setup, eps)
        corr = latent_pvalue_correlation(theta, eps)
        print(f"{z:6.2f} {corr:9.5f} {dist.mean():9.4f} {dist.sd():9.4f} "
              f"{dist.prob(0):9.5f}")


if __name__ == "__main__":
    main()
