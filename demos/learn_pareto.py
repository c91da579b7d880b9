"""Pareto shape and scale by reduction to the exponential problem.

If X is Pareto(x_m, a) then ln(X / x_m) is Exp(a), so the exponential
machinery transfers once the scale is handled. With the scale unknown, a
private binary search picks a pivot near a fixed tail quantile, the sample
is restricted to the tail above it, logs are taken relative to the pivot,
and the recovered rate doubles as the shape. Inverting the tail identity
at the pivot then recovers the scale.
"""

import numpy as np

from privexp import (DEFAULT_TAIL_QUANTILE, LearnerConfig, ParetoModel,
                     PrivacyBudget, RateBounds, RngStream, learn_pareto,
                     learn_pareto_known_scale, log_transform, sample)

CONFIG = LearnerConfig(alpha=0.2, beta=0.1, bounds=RateBounds(0.01, 100.0))
MODEL = ParetoModel(scale_xm=1.3, shape_alpha_p=2.5)


def main() -> None:
    rng = RngStream(31)
    data = sample(MODEL, 120_000, rng)
    print(f"truth: x_m = {MODEL.scale_xm}, shape = {MODEL.shape_alpha_p}")
    print(f"tail quantile tau = {DEFAULT_TAIL_QUANTILE:.4f}\n")

    # the reduction itself, outside any privacy machinery: logs above the
    # true scale are exactly exponential with rate = shape
    logs = log_transform(data, MODEL.scale_xm)
    print(f"mean of ln(X / x_m) = {float(np.mean(logs.values)):.4f} "
          f"(should be near 1/shape = {1 / MODEL.shape_alpha_p:.4f})")

    est = learn_pareto(data, CONFIG, PrivacyBudget(1.0), RngStream(32))
    print(f"\nunknown scale: shape_hat = {est.shape_hat:.4f}, "
          f"scale_hat = {est.scale_hat:.4f}")
    print(f"  fine stage via {est.route.value}")
    print(f"  scale recovered within x{est.scale_hat / MODEL.scale_xm:.4f} "
          "of truth (the pivot's CDF lands within tau +- alpha(1-tau)/4, "
          "which moves the log of the recovered scale by about "
          "alpha/(4 shape))")

    est2 = learn_pareto_known_scale(data, MODEL.scale_xm, CONFIG,
                                    PrivacyBudget(1.0), RngStream(33))
    print(f"\nknown scale: shape_hat = {est2.shape_hat:.4f} "
          f"(whole sample, no tail restriction)")


if __name__ == "__main__":
    main()
