"""Removing the a priori rate bounds with a stability-released histogram.

Every pure-DP learner here needs a bounded range of candidate rates to walk.
When no such range is known, a dyadic histogram of the raw sample, released
under (eps, delta)-DP with a stability threshold, locates the data's scale:
the most loaded surviving bin pins the rate to a factor-4 window, and the
pure-DP adaptive learner runs inside that window.
"""

from privexp import (ExpModel, PrivacyBudget, RngStream, dyadic_histogram,
                     find_bounds, learn_without_bounds, noisy_histogram,
                     sample)

EPS, DELTA = 1.0, 1e-6


def main() -> None:
    data = sample(ExpModel(0.37), 50_000, RngStream(5))

    hist = dyadic_histogram(data)
    top = sorted(hist.items(), key=lambda kv: -kv[1])[:5]
    print("heaviest dyadic bins (k means values in [2^k, 2^{k+1})):")
    for k, frac in top:
        print(f"  k = {k:+d}   fraction = {frac:.4f}")

    released = noisy_histogram(data, PrivacyBudget(EPS, DELTA), RngStream(6))
    print(f"\nstability threshold = {released.threshold:.5f}")
    print(f"bins surviving the threshold: {sorted(released.noisy_bins)}")

    bounds = find_bounds(data, PrivacyBudget(EPS, DELTA), RngStream(6))
    print(f"\nreleased rate window: [{bounds.lower:.4f}, {bounds.upper:.4f}]")
    print(f"window ratio (always exactly 4): {bounds.upper / bounds.lower}")
    print(f"contains the true rate 0.37: {bounds.contains(0.37)}")

    budget = PrivacyBudget(EPS, DELTA)
    est = learn_without_bounds(data, alpha=0.2, beta=0.1, budget=budget,
                               rng=RngStream(6))
    eps_spent, delta_spent = budget.spent()
    print(f"\nend-to-end estimate: {est.lambda_hat:.4f} via {est.route.value}")
    print(f"ledger: eps = {eps_spent}, delta = {delta_spent}")


if __name__ == "__main__":
    main()
