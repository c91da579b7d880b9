"""Private quantile estimation with the sparse vector technique.

Walks a doubling grid of candidate points and stops at the first one whose
noisy empirical CDF clears a noisy threshold. Only the stopping decision is
released, which is why the whole scan costs a single epsilon. The located
quantile then sets the clipping level for the mean-based learner.
"""

import numpy as np

from privexp import (ExpModel, PrivacyBudget, RateBounds, RngStream,
                     clipping_range, sample, svt_grid, svt_quantile)

BOUNDS = RateBounds(0.1, 10.0)
THETA = 0.1  # target the 90th percentile


def main() -> None:
    rng = RngStream(seed=11)
    data = sample(ExpModel(2.0), 5000, rng)
    true_q = ExpModel(2.0).quantile(1.0 - THETA)

    grid = svt_grid(BOUNDS, THETA)
    print(f"grid: {grid.n_steps + 1} points from {grid.position(0):.4g} "
          f"to {grid.position(grid.n_steps):.4g}")
    print(f"true (1 - theta)-quantile of Exp(2): {true_q:.4f}\n")

    # a noiseless stream runs the same code with every Laplace draw pinned
    # to zero; useful to see where the scan would stop without privacy
    exact = svt_quantile(data, grid, PrivacyBudget(1.0), RngStream(0, noiseless=True))
    print(f"noiseless stop: {exact:.4g}")

    print("\nprivate scans at eps = 1:")
    for seed in range(5):
        budget = PrivacyBudget(1.0)
        found = svt_quantile(data, grid, budget, RngStream(seed))
        spent, _ = budget.spent()
        print(f"  seed {seed}: {found:8.4g}   spent eps = {spent}")

    found = svt_quantile(data, grid, PrivacyBudget(1.0), RngStream(3))
    r = clipping_range(found, data.n, THETA, beta=0.1)
    frac_above = float(np.mean(data.values > r))
    print(f"\nclipping level from the located quantile: R = {r:.3f}")
    print(f"fraction of the sample above R: {frac_above:.2e}")


if __name__ == "__main__":
    main()
