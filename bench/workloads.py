"""The benchmark's workloads: what each one calls, what it times, what it checks.

A *trial* is one learner run on one dataset, including producing the data:
a Monte Carlo trial samples a fresh dataset, a file estimate parses one.
Every workload runs all six learners, so every end-to-end metric is defined
on every workload, and a change confined to one learner shows up in that
learner's ``ms_per_trial`` while the other five act as its control.

Each workload is a closed loop with one caller. The loop in ``run.py``
repeats ``cycle()`` until the run's time is used up; a cycle makes every
call of the workload once. Outputs are checked outside the timed regions.

Timings are reported twice: raw, and scaled to a fixed machine speed by
``SpeedReference``. The scaled ones are the end-to-end metrics, because the
CPU speed of a shared machine drifts by a quarter over seconds to minutes,
which moves every raw timing of a run together.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time
from collections import Counter

import numpy as np

ALPHA, BETA, EPSILON = 0.2, 0.1, 1.0
BOUNDS = (0.01, 100.0)
BOUNDS_FINDER_DELTA = 1e-6
PARETO_XM, PARETO_SHAPE = 1.0, 2.0
EXP_FILE_RATE = 4.0
# Larger than any Monte Carlo n, and parsing still dominates an estimate.
# At 1e6 values each learner got only 3-4 calls in a run, and the ten-seed
# spread of its scaled median was up to 0.10 against 0.07 here.
FILE_VALUES = 250_000

# (learner, true rate or shape, n, trials per call). n is pinned to the
# auto-sized value at the benchmark's first commit, so that a change to a
# sample-size calculator does not change the work measured. Trials per call
# keep every call at tens of milliseconds.
MC_SPECS = (
    ("mle", 4.0, 20_424, 10),
    ("quantile", 0.5, 616, 100),
    ("best-of-both", 5.0, 36_944, 10),   # coarse estimate picks the MLE route
    ("best-of-both", 0.2, 5_084, 10),    # ... and here the quantile route
    ("bounds-finder", 1.0, 59_916, 10),
    ("pareto", PARETO_SHAPE, 112_324, 4),
    ("pareto-known-scale", PARETO_SHAPE, 20_424, 10),
)
LEARNERS = tuple(dict.fromkeys(learner for learner, *_ in MC_SPECS))
PARETO_LEARNERS = ("pareto", "pareto-known-scale")


# What the reference computation takes at the speed the scaled timings
# assume; about its raw time on the 2-core Xeon VM the baseline was taken on.
REFERENCE_S = 0.004


class SpeedReference:
    """Times a fixed computation that does not touch privexp (a Python loop
    of ``math.log`` and a numpy sort, the two kinds of work privexp does)
    between the benchmark's calls, and scales each call's time by
    ``REFERENCE_S`` over the mean of the reference times on either side."""

    def __init__(self):
        rng = random.Random(0)
        self._floats = [1.0 + rng.random() for _ in range(20_000)]
        self._array = np.array([rng.random() for _ in range(50_000)])
        self.samples = [self._measure()]

    def _measure(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for v in self._floats:
            total += math.log(v)
        np.sort(self._array)
        return time.perf_counter() - t0

    def timed(self, fn, *args, **kwargs) -> tuple:
        """(result, raw seconds, scaled seconds) of one call."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        before = self.samples[-1]
        self.samples.append(self._measure())
        return result, raw, raw * REFERENCE_S / ((before + self.samples[-1]) / 2)


class Tally:
    """Counts the calls a run attempted and the checks they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()

    def record(self, checks: dict) -> None:
        """One attempted call; ``checks`` maps check name to pass/fail."""
        self.attempted += 1
        bad = [name for name, ok in checks.items() if not ok]
        self.failures.update(bad)
        if bad:
            self.failed += 1


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def _in_band(value, center) -> bool:
    return value is not None and (1 - ALPHA) * center <= value <= (1 + ALPHA) * center


def _pareto_scale_limit(px) -> float:
    # Largest tolerated overshoot of the recovered scale, as the harness
    # scores Monte Carlo trials.
    tau = px.DEFAULT_TAIL_QUANTILE
    return math.exp(2.0 * math.log(7.0) * (ALPHA / PARETO_SHAPE) * tau)


def build_specs(px, seed: int, scale: float = 1.0) -> list:
    """The Monte Carlo specs, each as (pinned spec, auto-sized spec).

    ``scale`` shrinks n for the smoke test; runs of the benchmark use 1.
    """
    bounds = px.RateBounds(*BOUNDS)
    specs = []
    for k, (learner, truth, n, trials) in enumerate(MC_SPECS):
        kw = dict(learner=px.Learner(learner), alpha=ALPHA, beta=BETA,
                  epsilon=EPSILON, trials=trials, base_seed=seed * 1000 + k)
        if learner == "bounds-finder":
            kw.update(delta=BOUNDS_FINDER_DELTA, true_lambda=truth)
        elif learner in PARETO_LEARNERS:
            kw.update(bounds=bounds, true_xm=PARETO_XM, true_shape=truth)
        else:
            kw.update(bounds=bounds, true_lambda=truth)
        auto = px.ExperimentSpec(**kw)
        pinned = px.ExperimentSpec(**kw, n=max(50, round(n * scale)))
        specs.append((pinned, auto))
    return specs


class MonteCarlo:
    """Serial or threaded ``run_experiment`` over all seven specs.

    Checks per call: the output is byte-identical to the first run of the
    same spec (with workers, to the serial run), and ``n_used`` is the
    pinned n. ``audit`` replays trial 0 of each spec through the public
    learner API and checks its estimate and the budget it spent.
    """

    def __init__(self, px, specs, speed: SpeedReference, workers=None):
        self.px = px
        self.speed = speed
        self.specs = [pinned for pinned, _ in specs]
        self.workers = workers
        self.reference: dict = {}
        self.summaries: dict = {}
        if workers:
            for i, spec in enumerate(self.specs):
                self.summaries[i] = px.run_experiment(spec)
                self.reference[i] = self.summaries[i].to_json()

    def cycle(self, tally: Tally) -> dict:
        times = Times()
        for i, spec in enumerate(self.specs):
            summary, raw, scaled = self.speed.timed(
                self.px.run_experiment, spec, workers=self.workers)
            times.add(spec.learner.value, spec.trials, raw, scaled)
            out = summary.to_json()
            self.summaries.setdefault(i, summary)
            ref = self.reference.setdefault(i, out)
            tally.record({"output_identical": out == ref,
                          "n_used": summary.n_used == spec.n})
        return times.cycle()

    def audit(self, tally: Tally) -> None:
        for i, spec in enumerate(self.specs):
            tally.record(self._replay_trial0(spec, self.summaries[i].records[0]))

    def _replay_trial0(self, spec, record) -> dict:
        px = self.px
        rng = px.RngStream(spec.base_seed, 0)
        learner = spec.learner.value
        if learner in PARETO_LEARNERS:
            model = px.ParetoModel(spec.true_xm, spec.true_shape)
        else:
            model = px.ExpModel(spec.true_lambda)
        data = px.sample(model, spec.n, rng)
        budget = px.PrivacyBudget(spec.epsilon, spec.delta)
        config = px.LearnerConfig(spec.alpha, spec.beta, spec.bounds)
        run = {
            "mle": lambda: px.mle_learning(data, config, budget, rng).lambda_hat,
            "quantile": lambda: px.quantile_learning(data, config, budget, rng).lambda_hat,
            "best-of-both": lambda: px.best_of_both(data, config, budget, rng).lambda_hat,
            "bounds-finder": lambda: px.find_bounds(data, budget, rng),
            "pareto": lambda: px.learn_pareto(data, config, budget, rng,
                                              tau=spec.tau).shape_hat,
            "pareto-known-scale": lambda: px.learn_pareto_known_scale(
                data, spec.true_xm, config, budget, rng).shape_hat,
        }[learner]
        try:
            value = run()
        except px.PrivexpError as exc:
            return {"trial0_replayed": record.failure_name == type(exc).__name__}
        if learner == "bounds-finder":
            found = None if value is None else {"lower": value.lower,
                                                "upper": value.upper}
            same = (found or {}) == record.detail
        else:
            same = value == record.estimate
        spent = budget.spent() == (spec.epsilon, spec.delta)
        return {"trial0_replayed": same, "budget_spent": spent}

    def digest(self) -> str:
        return _digest(self.reference[i] for i in sorted(self.reference))

    def report(self, cycles: list) -> dict:
        records = [r for s in self.summaries.values() for r in s.records]
        trials = len(records)
        return {
            "success_rate": (sum(r.outcome == "success" for r in records) / trials,
                             "share", "higher"),
            "trial_failure_share": (sum(r.failure_name is not None for r in records)
                                    / trials, "share", "lower"),
        }


class Times:
    """One cycle's timings: per learner, the mean ms per trial over its calls,
    raw and scaled, and the cycle's total busy seconds and trials."""

    def __init__(self):
        self.trials = 0
        self.busy = {"raw": 0.0, "scaled": 0.0}
        self.per_learner: dict = {"raw": {}, "scaled": {}}

    def add(self, learner: str, trials: int, raw: float, scaled: float) -> None:
        self.trials += trials
        for kind, seconds in (("raw", raw), ("scaled", scaled)):
            self.busy[kind] += seconds
            self.per_learner[kind].setdefault(learner, []).append(
                1e3 * seconds / trials)

    def cycle(self) -> dict:
        out = {"trials": self.trials}
        for kind, prefix in (("raw", "raw_"), ("scaled", "")):
            out[prefix + "busy_s"] = self.busy[kind]
            out[prefix + "ms_per_trial"] = {
                k: statistics.fmean(v) for k, v in self.per_learner[kind].items()}
        return out


def _estimate_jobs(exp_path: str, pareto_path: str, seed: int) -> list:
    common = ["--alpha", str(ALPHA), "--beta", str(BETA),
              "--epsilon", str(EPSILON),
              "--lambda-min", str(BOUNDS[0]), "--lambda-max", str(BOUNDS[1])]
    extra = {"bounds-finder": ["--delta", str(BOUNDS_FINDER_DELTA)],
             "pareto-known-scale": ["--xm", str(PARETO_XM)]}
    jobs = []
    for k, learner in enumerate(LEARNERS):
        path = pareto_path if learner in PARETO_LEARNERS else exp_path
        argv = ["estimate", "--in", path, "--learner", learner, *common,
                *extra.get(learner, []), "--seed", str(seed * 1000 + 200 + k)]
        jobs.append((learner, argv))
    return jobs


class FileEstimate:
    """``write_sample`` an Exp(4) and a Pareto(1, 2) file, then run the CLI's
    ``estimate`` in-process for every learner on the matching file.

    Checks per call: the exit code is 0, the released budget is exactly the
    configured (epsilon, delta), n is the file's length, and the output is
    byte-identical to the first call of the same job. ``audit`` checks that
    each file reads back exactly the values that were sampled.
    """

    def __init__(self, px, seed: int, workdir: str, speed: SpeedReference,
                 scale: float = 1.0):
        self.px = px
        self.speed = speed
        self.n = max(50, round(FILE_VALUES * scale))
        exp_path = os.path.join(workdir, "exp.txt")
        pareto_path = os.path.join(workdir, "pareto.txt")
        self.files = [
            (exp_path, px.ExpModel(EXP_FILE_RATE), seed * 1000 + 100),
            (pareto_path, px.ParetoModel(PARETO_XM, PARETO_SHAPE), seed * 1000 + 101),
        ]
        self.out_path = os.path.join(workdir, "estimate.json")
        self.jobs = _estimate_jobs(exp_path, pareto_path, seed)
        self.reference: dict = {}

    def cycle(self, tally: Tally) -> dict:
        px = self.px
        write_s = []
        for path, model, seed in self.files:
            t0 = time.perf_counter()
            px.write_sample(path, model, self.n, seed)
            write_s.append(time.perf_counter() - t0)
        times = Times()
        for learner, argv in self.jobs:
            code, raw, scaled = self.speed.timed(
                px.cli.main, [*argv, "--out", self.out_path])
            times.add(learner, 1, raw, scaled)
            out = ""
            if code == 0:
                with open(self.out_path) as fh:
                    out = fh.read()
            ref = self.reference.setdefault(learner, out)
            checks = {"exit_code": code == 0, "output_identical": out == ref}
            try:
                payload = json.loads(out)
            except ValueError:
                payload = {}
            delta = BOUNDS_FINDER_DELTA if learner == "bounds-finder" else 0.0
            checks["budget_spent"] = payload.get("budget_spent") == {
                "epsilon": EPSILON, "delta": delta}
            checks["n_used"] = payload.get("n") == self.n
            tally.record(checks)
        return dict(times.cycle(),
                    values_per_write_s=[self.n / s for s in write_s])

    def audit(self, tally: Tally) -> None:
        px = self.px
        for path, model, seed in self.files:
            expected = px.sample(model, self.n, px.RngStream(seed)).values.tolist()
            tally.record({"file_roundtrip": px.read_values(path) == expected})

    def digest(self) -> str:
        return _digest(self.reference[k] for k in sorted(self.reference))

    def report(self, cycles: list) -> dict:
        calls = sorted(ms / 1e3 for c in cycles for ms in c["raw_ms_per_trial"].values())
        rates = [r for c in cycles for r in c["values_per_write_s"]]
        return {
            "estimate_s_p50": (_percentile(calls, 0.5), "s", "lower"),
            "estimate_s_p90": (_percentile(calls, 0.9), "s", "lower"),
            "estimate_calls": (len(calls), "count", "higher"),
            "gen_values_per_s": (statistics.median(rates), "1/s", "higher"),
            "success_rate": (self._success_share(), "share", "higher"),
        }

    def _success_share(self) -> float:
        ok = 0
        for learner, out in self.reference.items():
            if not out:
                continue
            payload = json.loads(out)
            estimate = payload.get("estimate")
            if learner == "bounds-finder":
                found = payload.get("bounds_found")
                ok += bool(found) and found[0] < EXP_FILE_RATE < found[1]
            elif learner == "pareto":
                ok += (_in_band(estimate, PARETO_SHAPE) and payload["scale_hat"]
                       / PARETO_XM <= _pareto_scale_limit(self.px))
            elif learner in PARETO_LEARNERS:
                ok += _in_band(estimate, PARETO_SHAPE)
            else:
                ok += _in_band(estimate, EXP_FILE_RATE)
        return ok / len(self.jobs)


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
