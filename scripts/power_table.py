#!/usr/bin/env python3
"""Power planning table from a pilot fit.

Scales the pilot coefficients to each planned subject sample size N by
(N / pilot_N)^(1/2), sweeps latent-dependence levels z (eps = z *
theta(N)), and prints the expected number of discoveries and the
probability of at least one, per (N, z) cell.
"""
import argparse

from fdrdist import ThetaParams, power_table


def _floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _ints(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=_floats,
                        default=(0.0524, 0.00983, 0.00327),
                        help="pilot-fitted coefficients theta_1..theta_I")
    parser.add_argument("--pilot-n", type=int, default=78,
                        help="subject sample size of the pilot study")
    parser.add_argument("--n-tests", type=int, default=48803)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--n-list", type=_ints, default=(78, 300, 450, 600))
    parser.add_argument("--z-list", type=_floats, default=(0.0, 0.4, 0.8))
    args = parser.parse_args()

    pilot = ThetaParams(len(args.theta), args.theta)
    grid = power_table(pilot, args.pilot_n, args.n_tests, args.alpha,
                       args.n_list, args.z_list)
    print(f"pilot theta = {args.theta} at N = {args.pilot_n}, "
          f"n_tests = {args.n_tests}, alpha = {args.alpha}")
    print(f"{'N':>6} {'z':>5} {'corr':>9} {'E[BH]':>10} {'Pr[BH>0]':>9}")
    for row in grid.rows:
        print(f"{row.n_subjects:6d} {row.z:5.2f} {row.correlation:9.5f} "
              f"{row.expected_bh:10.4f} {row.prob_bh_positive:9.4f}")


if __name__ == "__main__":
    main()
