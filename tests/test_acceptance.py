"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line (echoed in the pytest summary
via conftest) and then asserts. Monte Carlo checks run at fixed seeds with
margins wide enough that they are not flaky; a check that encodes an
aspirational guarantee (acceptance 12) is expected to fail honestly and say
so in its detail string rather than being weakened.
"""

import math
import subprocess
import sys
import time

import numpy as np
import scipy.stats

import conftest
from oracles import (
    oracle_best_of_both,
    oracle_find_bounds,
    oracle_learn_pareto,
    oracle_learn_pareto_known_scale,
    oracle_learn_without_bounds,
    oracle_mle_learning,
    oracle_quantile_learning,
    oracle_svt_quantile,
    quad_exp_tv,
)
from privexp.analysis import SampleBound, build_packing, lower_bound_n, quantile_order_terms, required_n
from privexp.bounds import find_bounds, learn_without_bounds
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import ExpModel, ParetoModel, exp_tv, sample, separation_T
from privexp.errors import (
    EmptyTail,
    NoBinSurvived,
    NonpositiveMean,
    RangeEstimationFailed,
    ScaleViolation,
    SearchExhausted,
    TooFewSamples,
)
from privexp.harness import ExperimentSpec, Learner, run_experiment
from privexp.learners import (
    LearnerConfig,
    best_of_both,
    mle_learning,
    quantile_learning,
)
from privexp.pareto import (
    DEFAULT_TAIL_QUANTILE,
    learn_pareto,
    learn_pareto_known_scale,
    log_transform,
)
from privexp.privacy import NoiseScale, PrivacyBudget, RngStream, sample_laplace
from privexp.quantile import svt_grid, svt_quantile

MID = RateBounds(0.1, 10.0)
WIDE = RateBounds(0.01, 100.0)


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] acceptance {num:02d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.record_acceptance(line)
    assert ok, line


def test_01_tv_closed_form_matches_quadrature():
    start = time.perf_counter()
    rates = np.logspace(-3.0, 3.0, 20)
    worst = 0.0
    for i, l1 in enumerate(rates):
        assert exp_tv(l1, l1) == 0.0
        for l2 in rates[i + 1:]:
            diff = abs(exp_tv(float(l1), float(l2)) - quad_exp_tv(float(l1), float(l2)))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _criterion(1, "closed-form exponential TV matches adaptive quadrature "
                  "to 1e-9 over a 20x20 log-grid in under 5s",
               worst < 1e-9 and elapsed < 5.0,
               f"max |diff| = {worst:.2e}, {elapsed:.2f}s")


def test_02_tv_band_for_relative_rate_errors():
    gen = np.random.default_rng(202)
    violations = 0
    for _ in range(100):
        lam = float(np.exp(gen.uniform(math.log(1e-3), math.log(1e3))))
        alpha = float(gen.uniform(0.001, 0.999))
        if exp_tv((1.0 + alpha) * lam, lam) > alpha:
            violations += 1
        if exp_tv((1.0 - alpha) * lam, lam) > alpha:
            violations += 1
    _criterion(2, "rates within a (1 +- alpha) factor stay within TV alpha "
                  "for 100 random (rate, alpha) pairs",
               violations == 0, f"{violations} violations")


def test_03_packing_separation():
    alphas = np.linspace(0.001, 0.499, 1000)
    grid_ok = all(separation_T(1.0 + 8.0 * float(a)) >= float(a) for a in alphas)
    family_ok = True
    for bounds in (RateBounds(1.0, 10.0), RateBounds(0.5, 1e3)):
        for alpha in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45):
            rates = build_packing(bounds, alpha)
            for a, b in zip(rates, rates[1:]):
                family_ok = family_ok and exp_tv(a, b) >= alpha
    _criterion(3, "separation function T(1+8a) >= a on 1000 grid points and "
                  "every packing family keeps adjacent TV >= a",
               grid_ok and family_ok)


def _outcome(call, errors):
    """(tag, payload) of a learner call: its result or its error class."""
    try:
        return ("ok", call())
    except errors as exc:
        return ("err", type(exc))


def _compare_learners(values, theta, pareto_like, xm, failures):
    data = Dataset(values)
    cfg = LearnerConfig(0.2, 0.1, MID)

    def stream():
        return RngStream(0, noiseless=True)

    exp_errors = (RangeEstimationFailed, NonpositiveMean, SearchExhausted,
                  TooFewSamples)
    count = 0

    got = svt_quantile(data, svt_grid(MID, theta), PrivacyBudget(1.0), stream())
    want = oracle_svt_quantile(values, 0.1, 10.0, theta)
    if got != (None if want is None else want[0]):
        failures.append(f"svt: {got} != {want}")
    count += 1

    pairs = [
        ("mle",
         lambda: mle_learning(data, cfg, PrivacyBudget(1.0), stream()).lambda_hat,
         lambda: oracle_mle_learning(values, 0.1, 10.0, 0.1)[0]),
        ("quantile",
         lambda: quantile_learning(data, cfg, PrivacyBudget(1.0), stream()).lambda_hat,
         lambda: oracle_quantile_learning(values, 0.1, 10.0, 0.2)[0]),
        ("best-of-both",
         lambda: (lambda est: (est.lambda_hat, est.route.value))(
             best_of_both(data, cfg, PrivacyBudget(1.0), stream())),
         lambda: oracle_best_of_both(values, 0.1, 10.0, 0.2, 0.1)),
    ]
    for name, lib, orc in pairs:
        got = _outcome(lib, exp_errors)
        want = _outcome(orc, exp_errors)
        if got != want:
            failures.append(f"{name}: {got} != {want}")
        count += 1

    got = _outcome(lambda: as_pair(find_bounds(
        data, PrivacyBudget(1.0, 0.3), stream())), ())
    want = _outcome(lambda: oracle_find_bounds(values, 1.0, 0.3), ())
    if got != want:
        failures.append(f"find-bounds: {got} != {want}")
    count += 1

    lwb_errors = exp_errors + (NoBinSurvived,)
    got = _outcome(lambda: (lambda est: (est.lambda_hat, est.route.value))(
        learn_without_bounds(data, 0.2, 0.1, PrivacyBudget(1.0, 0.3),
                             stream())), lwb_errors)
    want = _outcome(lambda: oracle_learn_without_bounds(values, 0.2, 0.1, 1.0, 0.3),
                    lwb_errors)
    if got != want:
        failures.append(f"learn-without-bounds: {got} != {want}")
    count += 1

    if pareto_like:
        par_errors = exp_errors + (EmptyTail, ScaleViolation)
        got = _outcome(lambda: (lambda est: (est.shape_hat, est.scale_hat,
                                             est.route))(
            learn_pareto(data, cfg, PrivacyBudget(1.0), stream())), par_errors)
        want = _outcome(lambda: oracle_learn_pareto(
            values, 0.1, 10.0, 0.2, 0.1, DEFAULT_TAIL_QUANTILE), par_errors)
        if got != want:
            failures.append(f"pareto: {got} != {want}")
        count += 1

        got = _outcome(lambda: learn_pareto_known_scale(
            data, xm, cfg, PrivacyBudget(1.0), stream()).shape_hat, par_errors)
        want = _outcome(lambda: oracle_learn_pareto_known_scale(
            values, xm, 0.1, 10.0, 0.1)[0], par_errors)
        if got != want:
            failures.append(f"pareto-known-scale: {got} != {want}")
        count += 1
    return count


def as_pair(bounds):
    return None if bounds is None else (bounds.lower, bounds.upper)


def test_04_noiseless_learners_match_independent_reimplementations():
    start = time.perf_counter()
    gen = np.random.default_rng(404)
    failures: list = []
    comparisons = 0
    for i in range(1000):
        n = int(gen.integers(1, 101))
        pareto_like = i % 3 == 2
        xm = 1.0
        if pareto_like:
            shape = float(gen.uniform(0.5, 4.0))
            xm = float(gen.uniform(0.5, 2.0))
            values = (xm * (1.0 + gen.pareto(shape, n))).tolist()
        elif i % 3 == 1:
            values = gen.uniform(0.0, float(gen.uniform(1.0, 30.0)), n).tolist()
        else:
            rate = float(np.exp(gen.uniform(math.log(0.05), math.log(20.0))))
            values = gen.exponential(1.0 / rate, n).tolist()
        theta = float(gen.uniform(0.1, 0.9))
        comparisons += _compare_learners(values, theta, pareto_like, xm, failures)
        if failures:
            break
    elapsed = time.perf_counter() - start
    _criterion(4, "noiseless learners are bit-identical to brute-force "
                  "reimplementations on 1000 random datasets in under 30s",
               not failures and elapsed < 30.0,
               f"{comparisons} comparisons, {elapsed:.1f}s"
               + (f"; first mismatch: {failures[0]}" if failures else ""))


def test_05_mle_route_success_rate():
    start = time.perf_counter()
    spec = ExperimentSpec(Learner.MLE, alpha=0.2, beta=0.1, epsilon=1.0,
                          bounds=WIDE, true_lambda=4.0, trials=200,
                          base_seed=505)
    summary = run_experiment(spec)
    elapsed = time.perf_counter() - start
    _criterion(5, "MLE-route learner hits the accuracy band in >= 85% of 200 "
                  "trials at rate 4 with 4x the calculated sample size",
               summary.success_rate >= 0.85 and elapsed < 60.0,
               f"success {summary.success_rate:.3f} at n={summary.n_used}, "
               f"{elapsed:.1f}s")


def test_06_quantile_route_success_rate():
    spec = ExperimentSpec(Learner.QUANTILE, alpha=0.2, beta=0.1, epsilon=1.0,
                          bounds=WIDE, true_lambda=0.5, trials=200,
                          base_seed=606)
    summary = run_experiment(spec)
    _criterion(6, "quantile-route learner hits the accuracy band in >= 85% "
                  "of 200 trials at rate 0.5",
               summary.success_rate >= 0.85,
               f"success {summary.success_rate:.3f} at n={summary.n_used}")


def test_07_adaptive_learner_success_and_routing():
    rates = {}
    routes = {}
    ns = {}
    for lam, seed in [(0.2, 701), (1.0, 702), (5.0, 703)]:
        spec = ExperimentSpec(Learner.BEST_OF_BOTH, alpha=0.2, beta=0.1,
                              epsilon=1.0, bounds=WIDE, true_lambda=lam,
                              trials=200, base_seed=seed)
        summary = run_experiment(spec)
        rates[lam] = summary.success_rate
        ns[lam] = summary.n_used
        routes[lam] = sum(1 for r in summary.records if r.route == "mle") / 200.0
    ok = (all(r >= 0.85 for r in rates.values())
          and routes[5.0] >= 0.90 and (1.0 - routes[0.2]) >= 0.90)
    _criterion(7, "adaptive learner succeeds >= 85% at rates {0.2, 1, 5} and "
                  "routes >= 90% to the matching branch at the extremes",
               ok,
               f"success {rates}, mle-route fraction "
               f"{ {k: round(v, 3) for k, v in routes.items()} }, n {ns}")


def test_08_bounds_finder_coverage():
    spec = ExperimentSpec(Learner.BOUNDS_FINDER, alpha=0.2, beta=0.1,
                          epsilon=1.0, delta=1e-6, true_lambda=1.0,
                          n=100_000, trials=200, base_seed=808)
    summary = run_experiment(spec)
    ratios_exact = all(r.detail["upper"] / r.detail["lower"] == 4.0
                       for r in summary.records if r.detail)
    intervals = sum(1 for r in summary.records if r.detail)
    _criterion(8, "bounds finder covers the true rate in >= 90% of 200 trials "
                  "and every released interval has ratio exactly 4",
               summary.success_rate >= 0.90 and ratios_exact and intervals > 0,
               f"coverage {summary.success_rate:.3f}, "
               f"{intervals} intervals released")


def test_09_pareto_joint_guarantee():
    spec = ExperimentSpec(Learner.PARETO, alpha=0.2, beta=0.1, epsilon=1.0,
                          bounds=WIDE, true_xm=1.0, true_shape=2.0,
                          trials=200, base_seed=909)
    summary = run_experiment(spec)
    scale_cap = math.exp(2.0 * math.log(7.0) * (0.2 / 2.0) * DEFAULT_TAIL_QUANTILE)
    shape_only = sum(1 for r in summary.records if r.estimate is not None
                     and 1.6 <= r.estimate <= 2.4) / 200.0
    produced = [r.detail["scale_hat"] for r in summary.records if r.detail]
    scale_only = (sum(1 for s in produced
                      if abs(math.log(s)) <= math.log(scale_cap)) / 200.0)
    min_ratio = min(produced) if produced else float("nan")
    max_ratio = max(produced) if produced else float("nan")

    rng = RngStream(911)
    exceedances = log_transform(sample(ParetoModel(1.0, 2.0), 100_000, rng), 1.0)
    ks = scipy.stats.kstest(exceedances.values, ExpModel(2.0).cdf).statistic

    ok = summary.success_rate >= 0.85 and ks < 0.01
    _criterion(9, "Pareto learner: shape in band AND recovered scale within "
                  f"the e^(2 ln7 (a/shape) tau) = {scale_cap:.4f} factor in "
                  ">= 85% of 200 trials; tail-log exceedances pass KS < 0.01",
               ok,
               f"joint {summary.success_rate:.3f}, shape-only {shape_only:.3f}, "
               f"scale-only {scale_only:.3f}, released scale factors in "
               f"[{min_ratio:.4f}, {max_ratio:.4f}] vs cap {scale_cap:.4f} "
               f"either way, KS {ks:.5f} at n={summary.n_used}")


def test_10_laplace_sampler_statistics():
    b = 2.0
    rng = RngStream(1010)
    scale = NoiseScale(b)
    draws = np.fromiter((sample_laplace(scale, rng) for _ in range(1_000_000)),
                        dtype=np.float64, count=1_000_000)
    ks = scipy.stats.kstest(draws, "laplace", args=(0.0, b)).statistic
    tail = float(np.mean(np.abs(draws) > b * math.log(100.0)))
    ok = ks < 0.005 and 0.005 <= tail <= 0.015
    _criterion(10, "one million Laplace draws: KS < 0.005 against the "
                   "closed-form CDF and tail mass at b*ln(100) within "
                   "0.01 +- 0.005",
               ok, f"KS {ks:.5f}, tail {tail:.5f}")


def test_11_budget_accounting_is_exact():
    data = Dataset(ExpModel(1.0).quantile((np.arange(2000) + 0.5) / 2000))
    pareto_data = Dataset(ParetoModel(1.0, 2.0).quantile((np.arange(2000) + 0.5) / 2000))
    problems = []
    for eps in (0.5, 1.0, 2.0, 3.0):
        cfg = LearnerConfig(0.2, 0.1, MID)
        wide_cfg = LearnerConfig(0.2, 0.1, WIDE)

        budget = PrivacyBudget(eps)
        mle_learning(data, cfg, budget, RngStream(0, noiseless=True))
        if [c.epsilon for c in budget.children] != [eps / 2.0, eps / 2.0]:
            problems.append(f"mle split at eps={eps}")
        if budget.spent() != (eps, 0.0):
            problems.append(f"mle spend at eps={eps}: {budget.spent()}")

        budget = PrivacyBudget(eps)
        quantile_learning(data, cfg, budget, RngStream(0, noiseless=True))
        if budget.spent() != (eps, 0.0):
            problems.append(f"quantile spend at eps={eps}")

        budget = PrivacyBudget(eps)
        best_of_both(data, cfg, budget, RngStream(0, noiseless=True))
        fracs = [c.epsilon for c in budget.children]
        if fracs != [eps * (1.0 / 3.0), eps * (2.0 / 3.0)]:
            problems.append(f"adaptive split at eps={eps}: {fracs}")
        if budget.spent() != (eps, 0.0):
            problems.append(f"adaptive spend at eps={eps}: {budget.spent()}")

        budget = PrivacyBudget(eps, 1e-6)
        find_bounds(data, budget, RngStream(0, noiseless=True))
        if budget.spent() != (eps, 1e-6):
            problems.append(f"finder spend at eps={eps}")

        budget = PrivacyBudget(eps, 1e-6)
        learn_without_bounds(data, 0.2, 0.1, budget, RngStream(0, noiseless=True))
        deltas = [c.delta for c in budget.children]
        if deltas != [1e-6, 0.0] or budget.spent() != (eps, 1e-6):
            problems.append(f"no-bounds ledger at eps={eps}")

        budget = PrivacyBudget(eps)
        learn_pareto(pareto_data, wide_cfg, budget, RngStream(0, noiseless=True))
        if ([c.epsilon for c in budget.children] != [eps / 2.0, eps / 2.0]
                or budget.spent() != (eps, 0.0)):
            problems.append(f"pareto ledger at eps={eps}")

        budget = PrivacyBudget(eps)
        learn_pareto_known_scale(pareto_data, 1.0, wide_cfg, budget,
                                 RngStream(0, noiseless=True))
        if budget.spent() != (eps, 0.0):
            problems.append(f"known-scale spend at eps={eps}")

    _criterion(11, "every learner's ledger shows the declared split fractions "
                   "(1/2:1/2 pipeline, 1/3:2/3 adaptive) and spends exactly "
                   "(epsilon, delta)",
               not problems, "; ".join(problems) or "28 ledgers checked")


def test_12_lower_bound_consistent_with_upper_calculator():
    violations = []
    worst = (0.0, None)
    for alpha in (0.05, 0.1, 0.2):
        for beta in (0.05, 0.1):
            for eps in (0.5, 1.0, 2.0):
                for ratio in (1e2, 1e3, 1e4, 1e5, 1e6):
                    bounds = (1.0, ratio)
                    lower = lower_bound_n(alpha, beta, eps, bounds)
                    upper = required_n(SampleBound.QUANTILE_LEARNING,
                                       alpha=alpha, beta=beta, epsilon=eps,
                                       bounds=bounds).n_required
                    assert lower <= upper
                    privacy_n = math.ceil(
                        quantile_order_terms(eps, beta, alpha, bounds)[0])
                    r = privacy_n / lower
                    if r > worst[0]:
                        worst = (r, (alpha, beta, eps, ratio))
                    if r > 50.0:
                        violations.append((round(r, 3), alpha, beta, eps, ratio))
    _criterion(12, "packing lower bound stays below the quantile-route "
                   "calculator everywhere, and the privacy terms agree "
                   "within a factor of 50 across the 90-cell grid",
               not violations,
               f"max ratio {worst[0]:.3f} at (alpha, beta, eps, ratio)={worst[1]}; "
               f"{len(violations)} of 90 cells exceed 50")


def test_13_cli_outputs_are_byte_reproducible(tmp_path):
    base = [sys.executable, "-m", "privexp.cli"]
    exp_args = ["experiment", "--learner", "best-of-both", "--alpha", "0.2",
                "--beta", "0.1", "--epsilon", "1", "--lambda-min", "0.1",
                "--lambda-max", "10", "--true-lambda", "1", "--n", "400",
                "--trials", "10"]
    sweep_args = ["sweep", "--learner", "quantile", "--alpha", "0.2",
                  "--beta", "0.1", "--epsilon", "1", "--lambda-min", "0.1",
                  "--lambda-max", "10", "--true-lambda", "1", "--trials", "10",
                  "--n-grid", "100,400"]
    # exp_args at n = 2^16, the smallest trials that worker threads take
    big_args = [*exp_args[:-4], "--n", "65536", "--trials", "4"]
    outputs = {}
    for name, args, extra in [
        ("exp_a", exp_args, []),
        ("exp_b", exp_args, []),
        ("exp_par", exp_args, ["--workers", "4"]),
        ("sweep_a", sweep_args, []),
        ("sweep_b", sweep_args, ["--workers", "4"]),
        ("big_a", big_args, ["--workers", "1"]),
        ("big_par", big_args, ["--workers", "2"]),
    ]:
        out = tmp_path / f"{name}.txt"
        proc = subprocess.run([*base, *args, *extra, "--out", str(out)],
                              capture_output=True, env=conftest.src_on_path())
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[name] = out.read_bytes()
    ok = (outputs["exp_a"] == outputs["exp_b"] == outputs["exp_par"]
          and outputs["sweep_a"] == outputs["sweep_b"]
          and outputs["big_a"] == outputs["big_par"])
    _criterion(13, "experiment and sweep runs with identical flags are "
                   "byte-identical across reruns and worker counts",
               ok)
