"""Monte Carlo validation harness plus the file formats used by the CLI.

An experiment draws fresh synthetic data per trial, runs one learner under a
fresh privacy budget, and scores the result against the known ground truth.
Trial i always uses the random stream with stream_id=i derived from the
experiment's base seed, and records are aggregated in trial order, so the
output is byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .analysis import SampleBound, required_n
from .bounds import find_bounds
from .dataset import Dataset, RateBounds
from .distributions import ExpModel, ParetoModel, _check_draws, _draw, sample
from .errors import (IncompleteInputs, InputError, InvalidScale, NoBinSurvived,
                     OutOfRegime, PrivexpError, check_count, check_in)
from .learners import (Estimate, LearnerConfig, Route, best_of_both, mle_learning,
                       private_mle, quantile_learning)
from .pareto import (DEFAULT_TAIL_QUANTILE, TAU_MAX, TAU_MIN, learn_pareto,
                     learn_pareto_known_scale)
from .privacy import PrivacyBudget, RngStream, _seed_words

__all__ = ["Learner", "ExperimentSpec", "TrialRecord", "ExperimentSummary",
           "run_experiment", "run_sweep", "sweep_csv", "read_values",
           "write_sample", "estimate_from_file", "SWEEP_CSV_HEADER"]

SWEEP_CSV_HEADER = "n,success_rate,trials,seed"

OUTCOME_SUCCESS = "success"
OUTCOME_MISSED = "missed_tolerance"
OUTCOME_FAILURE = "failure"


class Learner(str, Enum):
    MLE = "mle"
    QUANTILE = "quantile"
    BEST_OF_BOTH = "best-of-both"
    BOUNDS_FINDER = "bounds-finder"
    PARETO = "pareto"
    PARETO_KNOWN_SCALE = "pareto-known-scale"


@dataclass(frozen=True)
class ExperimentSpec:
    learner: Learner
    alpha: float
    beta: float
    epsilon: float
    delta: float = 0.0
    bounds: RateBounds | None = None
    true_lambda: float | None = None
    true_xm: float | None = None
    true_shape: float | None = None
    n: int | None = None
    trials: int = 100
    base_seed: int = 0
    noiseless: bool = False
    safety_factor: float = 4.0
    tau: float = DEFAULT_TAIL_QUANTILE


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    outcome: str
    estimate: float | None
    route: str | None
    failure_name: str | None
    detail: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentSummary:
    spec: ExperimentSpec
    n_used: int
    success_rate: float
    failure_breakdown: dict
    mean_estimate: float | None
    median_estimate: float | None
    records: tuple

    def to_dict(self) -> dict:
        spec = self.spec
        bounds = None if spec.bounds is None else [spec.bounds.lower,
                                                   spec.bounds.upper]
        return {
            **asdict(spec), "learner": spec.learner.value, "bounds": bounds,
            "n": self.n_used,
            "success_rate": self.success_rate,
            "failure_breakdown": self.failure_breakdown,
            "mean_estimate": self.mean_estimate,
            "median_estimate": self.median_estimate,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# --- one row per learner -----------------------------------------------------
# A run takes (data, spec, config, budget, rng), config being the one
# _check_inputs returns, and returns (estimate, route, detail) or raises a
# PrivexpError. Runs look the learners up by name when called, so a learner
# rebound in this module's namespace (as a tracer does) is the one that runs.

def _rate(est: Estimate):
    detail = ({} if est.coarse_estimate is None
              else {"coarse_estimate": est.coarse_estimate})
    return est.lambda_hat, est.route.value, detail


def _bounds_finder(data, spec, config, budget, rng):
    found = find_bounds(data, budget, rng)
    if found is None:
        raise NoBinSurvived("no histogram bin cleared the release threshold")
    return (None, Learner.BOUNDS_FINDER.value,
            {"lower": found.lower, "upper": found.upper})


def _pareto(data, spec, config, budget, rng):
    est = learn_pareto(data, config, budget, rng, tau=spec.tau)
    return est.shape_hat, est.route.value, {"scale_hat": est.scale_hat}


def _pareto_known_scale(data, spec, config, budget, rng):
    est = learn_pareto_known_scale(data, spec.true_xm, config, budget, rng)
    return est.shape_hat, est.route.value, {}


def _in_band(spec, estimate, detail) -> bool:
    """Is the estimate within alpha of the truth, relatively: the true shape
    on Pareto data, else the true rate?"""
    truth = spec.true_shape if _LEARNERS[spec.learner].pareto else spec.true_lambda
    return (1.0 - spec.alpha) * truth <= estimate <= (1.0 + spec.alpha) * truth


def _pareto_in_band(spec, estimate, detail) -> bool:
    # Largest tolerated log-factor between the recovered and the true scale,
    # either way: the TV distance of equal-shape Pareto laws depends on
    # |ln(m1/m2)|, so an undershoot counts like an overshoot.
    log_limit = 2.0 * math.log(7.0) * (spec.alpha / spec.true_shape) * spec.tau
    return (_in_band(spec, estimate, detail)
            and abs(math.log(detail["scale_hat"] / spec.true_xm)) <= log_limit)


class _Row(NamedTuple):
    run: Callable        # (data, spec, config, budget, rng)
    score: Callable      # (spec, estimate, detail) -> in the accuracy band?
    bound: SampleBound   # auto-sizes experiments
    pareto: bool         # Pareto data, sized by the shape; else exponential
    uses_delta: bool = False  # spends (epsilon, delta), so needs delta > 0,
                              # and reads no LearnerConfig; else spends
                              # epsilon and needs alpha, beta and bounds
    release: Callable = lambda detail: {}  # detail -> extra CLI payload keys


_LEARNERS = {
    Learner.MLE: _Row(
        lambda d, s, c, b, r: _rate(mle_learning(d, c, b, r)),
        _in_band, SampleBound.MLE_LEARNING, False),
    Learner.QUANTILE: _Row(
        lambda d, s, c, b, r: _rate(quantile_learning(d, c, b, r)),
        _in_band, SampleBound.QUANTILE_LEARNING, False),
    Learner.BEST_OF_BOTH: _Row(
        lambda d, s, c, b, r: _rate(best_of_both(d, c, b, r)),
        _in_band, SampleBound.BEST_OF_BOTH, False),
    Learner.BOUNDS_FINDER: _Row(
        _bounds_finder, lambda s, e, d: d["lower"] < s.true_lambda < d["upper"],
        SampleBound.BOUNDS_FINDER, False, uses_delta=True,
        release=lambda d: {"bounds_found": None if d is None
                           else [d["lower"], d["upper"]]}),
    Learner.PARETO: _Row(
        _pareto, _pareto_in_band, SampleBound.PARETO_LEARNING, True,
        release=lambda d: {"scale_hat": d["scale_hat"]}),
    Learner.PARETO_KNOWN_SCALE: _Row(
        _pareto_known_scale, _in_band, SampleBound.MLE_LEARNING, True),
}


def _check_inputs(spec: ExperimentSpec, row: _Row | None, *truth) -> LearnerConfig | None:
    """The spec's LearnerConfig for the row's run, once every input it reads
    is checked. IncompleteInputs unless the spec sets epsilon, what the
    run reads, and every group of fields in truth: a row that uses delta
    needs delta > 0 and reads no LearnerConfig, so gets None; any other row
    needs alpha and beta, then bounds, for its config. Row None, a clip_r
    run, reads epsilon only and gets None. OutOfRegime unless delta lies
    in [0, 1), whether or not the run spends it, and unless tau lies in
    [TAU_MIN, TAU_MAX] for the pareto row, the one that reads it."""
    uses_delta = row is not None and row.uses_delta
    config = () if row is None or uses_delta else (("alpha", "beta"), ("bounds",))
    for fields in (("epsilon",), *config, *truth):
        if any(getattr(spec, f) is None for f in fields):
            raise IncompleteInputs(f"{spec.learner.value} needs "
                                   f"{' and '.join(fields)}")
    check_in("delta", spec.delta, 0.0, 1.0, ends="[)")
    if uses_delta and spec.delta <= 0.0:
        raise IncompleteInputs(f"{spec.learner.value} needs delta > 0")
    if row is _LEARNERS[Learner.PARETO]:
        check_in("tau", spec.tau, TAU_MIN, TAU_MAX, ends="[]")
    return LearnerConfig(spec.alpha, spec.beta, spec.bounds) if config else None


def _check_spec(spec: ExperimentSpec) -> tuple:
    """(config, model, n) of the spec's experiment, each checked in that
    order: the model of the true law is built, and its draws checked to be
    finite, before the size, so a bad truth gets the law's refusal whether
    or not n is given."""
    # sizes an array and a range can take
    check_count("trials", spec.trials, 1, sys.maxsize)
    check_count("seed", spec.base_seed, 0, math.inf)  # as RngStream names it
    if spec.n is not None:
        check_count("n", spec.n, 1, sys.maxsize)
    check_in("safety_factor", spec.safety_factor, 0.0, math.inf)
    row = _LEARNERS[spec.learner]
    law, truth = ((ParetoModel, ("true_xm", "true_shape")) if row.pareto
                  else (ExpModel, ("true_lambda",)))
    return (_check_inputs(spec, row, truth),
            _check_draws(law(*(getattr(spec, f) for f in truth))), resolve_n(spec))


def resolve_n(spec: ExperimentSpec) -> int:
    """Explicit n wins; otherwise size the experiment from the learner's
    sample-size bound times the safety factor. Raises OutOfRegime when that
    size exceeds sys.maxsize."""
    if spec.n is not None:
        return spec.n
    row = _LEARNERS[spec.learner]
    report = required_n(row.bound, alpha=spec.alpha, beta=spec.beta,
                        epsilon=spec.epsilon,
                        delta=spec.delta if spec.delta > 0 else None,
                        lam=spec.true_shape if row.pareto else spec.true_lambda,
                        bounds=spec.bounds, tau=spec.tau)
    size = spec.safety_factor * report.n_required
    if not size <= sys.maxsize:
        raise OutOfRegime(f"the sized n, {size!r}, exceeds {sys.maxsize}")
    return max(1, math.ceil(size))


# Values per trial from which run_experiment hands trials to the pool.
# Each numpy call of a trial releases and retakes the GIL; on smaller trials
# the calls are so short that two threads spend their time handing it over.
# Two-thread over serial time per trial on the long-lived pool (8 trials,
# the median over three processes of medians of 25 interleaved repeats,
# 2-core Xeon VM):
#
#   n                      16,384  32,768  49,152  65,536  98,304  131,072
#   pareto                   1.76    1.01    0.84    0.72    0.61     0.60
#   pareto-known-scale       1.42    1.23    1.03    0.84    0.67     0.67
#   best-of-both (rate 5)    1.92    1.33    0.96    0.87    0.81     0.82
#   bounds-finder            1.54    1.42    1.06    1.10    0.86     0.85
#   mle                      1.50    1.20    0.96    0.84    0.76     0.76
#
# quantile read 2.82 at 616 values and 0.86 at 65,536. From 2^16 on, every
# learner but bounds-finder gains, and it loses a tenth; at 49,152 two lose.
_POOL_MIN_N = 1 << 16

# Threads of the default pool, where the process may run on that many CPUs.
# Every figure above is two threads over one; more threads are unmeasured,
# both their GIL hand-offs and their memory (each holds an n-sized sample
# buffer an experiment), and os.sched_getaffinity counts a host's CPUs, not
# a container's CPU quota.
_DEFAULT_WORKERS = 2


def _check_workers(workers: int | None) -> int:
    """workers, or for None _DEFAULT_WORKERS capped at the CPUs this process
    may run on; OutOfRegime unless that is an int of at least 1."""
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
        workers = min(_DEFAULT_WORKERS, cpus)
    return check_count("workers", workers, 1, sys.maxsize)


_pool_lock = threading.Lock()


@functools.lru_cache(maxsize=1)
def _executor(pid: int, workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=workers)


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's executor of `workers` threads, built on first use.

    Its threads outlive each experiment, and with them their _exact_sum
    blocks: with a pool started and joined per experiment, a two-thread
    pareto trial at n = 112,324 took 2.52-2.62 ms against 2.14-2.20 ms
    on this one (medians of 200 cycles over the benchmark's specs in each
    of two processes, 2-core Xeon VM). The cache holds one executor, keyed
    on the process id too, so a forked child, which inherits none of its
    threads, builds its own; the lock makes racing callers build one. An
    evicted executor is not shut down: its threads exit once the last
    experiment using it lets it go."""
    with _pool_lock:
        return _executor(os.getpid(), workers)


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> ExperimentSummary:
    """Run spec.trials trials. Trials of at least _POOL_MIN_N values go to
    the process's pool of `workers` threads, by default two where the
    process may run on two CPUs or more; smaller ones, and any with
    workers=1, run on this thread. The output is the same either way.

    What the trials share is built once here: the config, the model, the
    seed words of every trial's stream, and a sample buffer per thread."""
    workers = _check_workers(workers)
    config, model, n = _check_spec(spec)
    row = _LEARNERS[spec.learner]
    # One pass over all trials' streams: seeding each from its own
    # SeedSequence took about a quarter of a quantile trial at n = 616.
    seeds = _seed_words(spec.base_seed, np.arange(spec.trials, dtype=np.uint64))
    # One sample buffer per thread, freed with the experiment: allocating a
    # fresh one per trial page-faulted it in again each time.
    buffers = threading.local()

    def trial(i: int) -> TrialRecord:
        # Trial i on the draws sample(model, n, RngStream(base_seed, i))
        # would give, made in this thread's sample buffer.
        rng = RngStream._seeded(spec.base_seed, i, seeds[i], spec.noiseless)
        buf = getattr(buffers, "sample", None)
        if buf is None:
            buf = buffers.sample = np.empty(n)
        rng.generator.random(out=buf)
        # Reusing the buffer is safe because no Dataset outlives its trial: a
        # record keeps floats only. The Dataset freezes a view, not the buffer.
        data = Dataset._adopt(_draw(model, buf)[:])
        budget = PrivacyBudget(spec.epsilon, spec.delta if row.uses_delta else 0.0)
        try:
            estimate, route, detail = row.run(data, spec, config, budget, rng)
        except PrivexpError as exc:
            if budget.state == "fresh":  # a refusal of the spec, not of the data
                raise
            return TrialRecord(i, OUTCOME_FAILURE, None, None, type(exc).__name__, {})
        outcome = (OUTCOME_SUCCESS if row.score(spec, estimate, detail)
                   else OUTCOME_MISSED)
        return TrialRecord(i, outcome, estimate, route, None, detail)

    run = _pool(workers).map if workers > 1 and n >= _POOL_MIN_N else map
    records = tuple(run(trial, range(spec.trials)))

    successes = sum(r.outcome == OUTCOME_SUCCESS for r in records)
    breakdown = dict(sorted(Counter(r.failure_name for r in records
                                    if r.failure_name is not None).items()))
    produced = [r.estimate for r in records if r.estimate is not None]
    mean_est = math.fsum(produced) / len(produced) if produced else None
    median_est = float(statistics.median(produced)) if produced else None
    return ExperimentSummary(spec, n, successes / spec.trials, breakdown,
                             mean_est, median_est, records)


def run_sweep(spec: ExperimentSpec, n_values, workers: int | None = None) -> list:
    """One experiment per sample size, each run as run_experiment runs it
    with these workers; rows ordered as given. Every size is checked, as
    ExperimentSpec's n is, before the first experiment runs."""
    sizes = [check_count("n", n, 1, sys.maxsize) for n in n_values]
    rates = [run_experiment(replace(spec, n=n), workers=workers).success_rate
             for n in sizes]
    return [{"n": n, "success_rate": rate, "trials": spec.trials, "seed": spec.base_seed}
            for n, rate in zip(sizes, rates)]


def sweep_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(f"{row['n']},{row['success_rate']!r},"
                     f"{row['trials']},{row['seed']}")
    return "\n".join(lines) + "\n"


# --- plain-text sample files ------------------------------------------------

def write_sample(path, model, n: int, seed: int) -> None:
    """One value per line, full round-trip precision, seed recorded in a
    comment header."""
    body = "\n".join(map(repr, sample(model, n, RngStream(seed)).values.tolist()))
    _write_text(path, f"# seed={seed}\n{body}\n")


def _write_text(path, text: str) -> None:
    """Write text to the file at path; InputError if it cannot."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(str(exc)) from None


def read_values(path, require_positive: bool = False) -> list:
    """Parse one float per line; blank lines and '#' comments are skipped.
    Bad lines raise InputError with the 1-based line; unreadable files without one.

    Regular files whose blank and '#' lines all come before the first
    value are parsed in bulk; every other input is read once, line by line,
    to the same values and errors.
    """
    return _read_checked(path, require_positive).tolist()


def _read_checked(path, require_positive: bool) -> np.ndarray:
    """read_values' values as one checked float64 array.

    _load_column parses the common shape in bulk. A file it declines and
    one whose values fail the check are read by _parse_lines instead.
    """
    arr = _load_column(path)
    if arr is not None:
        lowest_ok = arr > 0.0 if require_positive else arr >= 0.0
        if np.all(np.isfinite(arr) & lowest_ok):
            return arr
    return np.array(_parse_lines(path, require_positive), dtype=np.float64)


# np.loadtxt opens a str path through numpy's DataSource, which picks a
# decompressor by these suffixes and fetches a path that parses as a URL.
_COMPRESSED_SUFFIXES = tuple(
    ext for ext in np.lib._datasource._file_openers.keys() if ext)


def _load_column(path) -> np.ndarray | None:
    """The values of a file with one value per line after its leading blank
    and '#' lines, parsed by np.loadtxt in C, or None.

    loadtxt converts each field with the correctly rounded conversion
    float() uses. It reopens the file by name, so it gets only a regular
    file, by absolute path, without a compressed suffix, which it opens as
    open() does (lines split at universal newlines only); a pipe or a file
    descriptor is read once, line by line. With comments=None, a '#' after
    the first value fails the parse. None also for a file with no value
    line (loadtxt would warn that it has no data) and one loadtxt refuses:
    a later comment, '1_000', non-ASCII digits, a second column, a byte the
    locale cannot decode.
    """
    try:
        name = os.path.abspath(os.fsdecode(path))
    except TypeError:
        return None
    if not os.path.isfile(name) or name.endswith(_COMPRESSED_SUFFIXES):
        return None
    try:
        with open(name) as fh:
            first = next((i for i, line in enumerate(fh) if _value_text(line)),
                         None)
        if first is None:
            return None
        arr = np.loadtxt(name, dtype=np.float64, comments=None,
                         skiprows=first, ndmin=2)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    return arr[:, 0] if arr.shape[1] == 1 else None


def _value_text(line: str) -> str:
    """The line stripped, or '' for a blank or '#' comment line."""
    text = line.strip()
    return "" if text.startswith("#") else text


def _parse_lines(path, require_positive: bool) -> list:
    """The file's values, one float() per line over text-mode iteration, or
    the InputError of its first bad line (without a line if the file cannot
    be opened or decoded)."""
    values = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = _value_text(raw)
                if not text:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise InputError(f"could not parse {text!r} as a number",
                                     line=lineno) from None
                if not math.isfinite(value):
                    raise InputError(f"non-finite value {text!r}", line=lineno)
                if value < 0.0:
                    raise InputError(f"negative value {text!r}", line=lineno)
                if require_positive and value == 0.0:
                    raise InputError("value must be strictly positive",
                                     line=lineno)
                values.append(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from None
    return values


def estimate_from_file(path, learner: Learner, *, alpha=None, beta=None,
                       epsilon=None, delta=0.0, bounds=None, seed=0,
                       noiseless=False, clip_r=None, known_scale=None,
                       tau=DEFAULT_TAIL_QUANTILE) -> dict:
    """Run one learner on a data file and return the JSON-ready result.

    clip_r bypasses range estimation and runs the clipped-mean estimator
    directly at that clipping level (debugging aid; spends the whole budget
    on the one release).
    """
    row = _LEARNERS[learner]
    # The learner reads its inputs from a spec, as in a trial; the declared
    # known scale stands in for the true one.
    spec = ExperimentSpec(learner, alpha, beta, epsilon, delta, bounds,
                          true_xm=known_scale, tau=tau)
    # Inputs are refused before the file is parsed, but for what only the
    # learner checks when it runs: its grids' limits.
    config = _check_inputs(spec, row if clip_r is None else None)
    rng = RngStream(seed, noiseless=noiseless)
    budget = PrivacyBudget(epsilon, delta if row.uses_delta and clip_r is None else 0.0)
    if clip_r is not None:
        check_in("clipping level clip_r", clip_r, 0.0, math.inf)
    elif learner is Learner.PARETO_KNOWN_SCALE:
        if known_scale is None:
            raise IncompleteInputs("pareto-known-scale needs the known scale value")
        check_in("known scale x_m", known_scale, 0.0, math.inf, InvalidScale)
    data = Dataset._adopt(_read_checked(path, row.pareto))

    if clip_r is not None:
        estimate = private_mle(data, clip_r, budget, rng)
        route, extra = Route.MLE.value, {}
    else:
        try:
            estimate, route, detail = row.run(data, spec, config, budget, rng)
        except NoBinSurvived:
            # An empty survivor set is a release too: no interval found.
            estimate, route, detail = None, learner.value, None
        extra = row.release(detail)

    spent_eps, spent_delta = budget.spent()
    return {"estimate": estimate, "route": route,
            "budget_spent": {"epsilon": spent_eps, "delta": spent_delta},
            "n": data.n, **extra}
