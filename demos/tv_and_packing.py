"""Exact total variation between exponentials, and what it buys you.

The TV distance between Exp(l1) and Exp(l2) has a closed form: the two
densities cross exactly once, and integrating |f1 - f2| on either side of
the crossing telescopes into a two-term expression. This script plots the
distance along a ray of rate ratios, then uses the separation function to
build a packing: a maximal family of rates that are pairwise far apart in
TV, which is what caps how fast any estimator (private or not) can learn.
"""

import numpy as np

from privexp import (RateBounds, build_packing, exp_tv, exp_tv_crossing,
                     lower_bound_n, separation_T)


def main() -> None:
    print("TV distance from Exp(1.0) as the other rate moves")
    print(f"{'rate':>8}  {'crossing':>9}  {'tv':>10}")
    for rho in [1.01, 1.1, 1.25, 1.5, 2.0, 4.0, 10.0, 100.0]:
        x = exp_tv_crossing(1.0, rho)
        print(f"{rho:8.2f}  {x:9.4f}  {exp_tv(1.0, rho):10.6f}")

    # separation_T(r) is the TV between rates one factor r apart; a factor
    # of (1 + 8a) is always at least a apart for a < 1/2
    alphas = np.linspace(0.01, 0.49, 7)
    print("\nseparation at ratio 1 + 8a (always >= a):")
    for a in alphas:
        t = separation_T(1.0 + 8.0 * a)
        print(f"  a = {a:.2f}  T = {t:.4f}  margin = {t - a:+.4f}")

    bounds = RateBounds(0.5, 500.0)
    for alpha in (0.05, 0.2):
        rates = build_packing(bounds, alpha)
        gaps = [exp_tv(a, b) for a, b in zip(rates, rates[1:])]
        print(f"\npacking of [{bounds.lower}, {bounds.upper}] at alpha = {alpha}:")
        print(f"  {len(rates)} rates, first/last = "
              f"{rates[0]:.4g} / {rates[-1]:.4g}")
        print(f"  adjacent TV min = {min(gaps):.4f} (needs >= {alpha})")
        n_min = lower_bound_n(alpha, 0.1, 1.0, bounds)
        print(f"  no eps=1 learner can succeed below n = {n_min}")


if __name__ == "__main__":
    main()
