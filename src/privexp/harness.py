"""Monte Carlo validation harness plus the file formats used by the CLI.

An experiment draws fresh synthetic data per trial, runs one learner under a
fresh privacy budget, and scores the result against the known ground truth.
Trial i always uses the random stream with stream_id=i derived from the
experiment's base seed, and records are aggregated in trial order, so the
output is byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .analysis import SampleBound, required_n
from .bounds import find_bounds
from .dataset import Dataset, RateBounds
from .distributions import ExpModel, ParetoModel, _draw, sample
from .errors import (IncompleteInputs, InputError, NoBinSurvived, OutOfRegime,
                     PrivexpError, check_count, check_in)
from .learners import (Estimate, LearnerConfig, best_of_both, mle_learning,
                       private_mle, quantile_learning)
from .pareto import (DEFAULT_TAIL_QUANTILE, learn_pareto,
                     learn_pareto_known_scale)
from .privacy import PrivacyBudget, RngStream

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


def _config(spec: ExperimentSpec) -> LearnerConfig | None:
    """The spec's LearnerConfig, or None for a learner that reads none."""
    if _LEARNERS[spec.learner].needs != _CONFIG_NEEDS:
        return None
    return LearnerConfig(spec.alpha, spec.beta, spec.bounds)


def _in_band(value: float, center: float, alpha: float) -> bool:
    return (1.0 - alpha) * center <= value <= (1.0 + alpha) * center


# --- one row per learner -----------------------------------------------------
# A run takes (data, spec, config, budget, rng), config being _config(spec),
# and returns (estimate, route, detail) or raises a PrivexpError. Runs look
# the learners up by name when called, so a learner rebound in this module's
# namespace (as a tracer does) is the one that runs.

def _rate(est: Estimate):
    detail = ({} if est.coarse_estimate is None
              else {"coarse_estimate": est.coarse_estimate})
    return est.lambda_hat, est.route.value, detail


def _bounds_finder(data, spec, config, budget, rng):
    found = find_bounds(data, budget, rng)
    if found is None:
        raise NoBinSurvived("no histogram bin cleared the release threshold")
    return None, "bounds-finder", {"lower": found.lower, "upper": found.upper}


def _pareto(data, spec, config, budget, rng):
    est = learn_pareto(data, config, budget, rng, tau=spec.tau)
    return est.shape_hat, est.route.value, {"scale_hat": est.scale_hat}


def _pareto_known_scale(data, spec, config, budget, rng):
    if spec.true_xm is None:
        raise IncompleteInputs("pareto-known-scale needs the known scale value")
    est = learn_pareto_known_scale(data, spec.true_xm, config, budget, rng)
    return est.shape_hat, est.route.value, {}


def _rate_in_band(spec, estimate, detail) -> bool:
    return _in_band(estimate, spec.true_lambda, spec.alpha)


def _shape_in_band(spec, estimate, detail) -> bool:
    return _in_band(estimate, spec.true_shape, spec.alpha)


def _pareto_in_band(spec, estimate, detail) -> bool:
    # Largest tolerated log-factor between the recovered and the true scale,
    # either way: the TV distance of equal-shape Pareto laws depends on
    # |ln(m1/m2)|, so an undershoot counts like an overshoot.
    log_limit = 2.0 * math.log(7.0) * (spec.alpha / spec.true_shape) * spec.tau
    return (_shape_in_band(spec, estimate, detail)
            and abs(math.log(detail["scale_hat"] / spec.true_xm)) <= log_limit)


class _Row(NamedTuple):
    run: Callable        # (data, spec, config, budget, rng)
    score: Callable      # (spec, estimate, detail) -> in the accuracy band?
    bound: SampleBound   # auto-sizes experiments
    pareto: bool         # Pareto data, sized by the shape; else exponential
    needs: tuple         # groups of ExperimentSpec fields that must be set,
                         # besides epsilon and the true parameters
    uses_delta: bool = False  # spends (epsilon, delta): needs delta > 0
    release: Callable = lambda detail: {}  # detail -> extra CLI payload keys


_CONFIG_NEEDS = (("alpha", "beta"), ("bounds",))  # builds a LearnerConfig

_LEARNERS = {
    Learner.MLE: _Row(
        lambda d, s, c, b, r: _rate(mle_learning(d, c, b, r)),
        _rate_in_band, SampleBound.MLE_LEARNING, False, _CONFIG_NEEDS),
    Learner.QUANTILE: _Row(
        lambda d, s, c, b, r: _rate(quantile_learning(d, c, b, r)),
        _rate_in_band, SampleBound.QUANTILE_LEARNING, False, _CONFIG_NEEDS),
    Learner.BEST_OF_BOTH: _Row(
        lambda d, s, c, b, r: _rate(best_of_both(d, c, b, r)),
        _rate_in_band, SampleBound.BEST_OF_BOTH, False, _CONFIG_NEEDS),
    Learner.BOUNDS_FINDER: _Row(
        _bounds_finder, lambda s, e, d: d["lower"] < s.true_lambda < d["upper"],
        SampleBound.BOUNDS_FINDER, False, (), uses_delta=True,
        release=lambda d: {"bounds_found": None if d is None
                           else [d["lower"], d["upper"]]}),
    Learner.PARETO: _Row(
        _pareto, _pareto_in_band, SampleBound.PARETO_LEARNING, True, _CONFIG_NEEDS,
        release=lambda d: {"scale_hat": d["scale_hat"]}),
    Learner.PARETO_KNOWN_SCALE: _Row(
        _pareto_known_scale, _shape_in_band, SampleBound.MLE_LEARNING, True,
        _CONFIG_NEEDS),
}


def _check_inputs(spec: ExperimentSpec, needs, uses_delta: bool) -> None:
    """Raise IncompleteInputs unless the spec sets epsilon and every group of
    fields in needs, and delta > 0 if uses_delta; OutOfRegime unless delta
    lies in [0, 1), whether or not the run spends it."""
    for fields in (("epsilon",), *needs):
        if any(getattr(spec, f) is None for f in fields):
            raise IncompleteInputs(f"{spec.learner.value} needs "
                                   f"{' and '.join(fields)}")
    check_in("delta", spec.delta, 0.0, 1.0, ends="[)")
    if uses_delta and spec.delta <= 0.0:
        raise IncompleteInputs(f"{spec.learner.value} needs delta > 0")


def _check_spec(spec: ExperimentSpec) -> None:
    # sizes an array and a range can take
    check_count("trials", spec.trials, 1, sys.maxsize)
    if spec.n is not None:
        check_count("n", spec.n, 1, sys.maxsize)
    check_in("safety_factor", spec.safety_factor, 0.0, math.inf)
    row = _LEARNERS[spec.learner]
    truth = ("true_xm", "true_shape") if row.pareto else ("true_lambda",)
    _check_inputs(spec, (*row.needs, truth), row.uses_delta)


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


# Values per trial from which run_experiment hands trials to its threads.
# Each numpy call of a trial releases and retakes the GIL; on smaller trials
# the calls are so short that two threads spend their time handing it over.
# Two-thread over serial time per trial (8 trials, medians of 9 interleaved
# repeats, 2-core Xeon VM):
#
#   n                      16,384  32,768  49,152  65,536  98,304  131,072
#   pareto                   1.28    0.95    0.96    0.78    0.66     0.64
#   pareto-known-scale       1.39    1.09    0.88    0.81    0.83     0.79
#   best-of-both (rate 5)    1.33    1.25    1.16    1.00    0.88     0.84
#   bounds-finder            2.30    1.29    1.18    1.10    1.15     0.84
#   mle                      1.53    1.19    1.09    1.03    0.73     0.75
#
# quantile read 3.11 at 616 values and 0.91 at 65,536. From 2^16 on, both
# Pareto learners gain and none of the others loses more than a tenth.
_POOL_MIN_N = 1 << 16


def _run_trial(spec: ExperimentSpec, row: _Row, model, config: LearnerConfig | None,
               n: int, trial_id: int, buffers: threading.local) -> TrialRecord:
    """Trial trial_id on the draws sample(model, n, RngStream(seed, trial_id))
    would give, made in this thread's n-sized buffer of the experiment."""
    rng = RngStream(spec.base_seed, trial_id, noiseless=spec.noiseless)
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
        return TrialRecord(trial_id, OUTCOME_FAILURE, None, None,
                           type(exc).__name__, {})
    outcome = (OUTCOME_SUCCESS if row.score(spec, estimate, detail)
               else OUTCOME_MISSED)
    return TrialRecord(trial_id, outcome, estimate, route, None, detail)


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> ExperimentSummary:
    """Run spec.trials trials; up to `workers` threads share them when the
    trials are of at least _POOL_MIN_N values, else they run on this thread.

    What the trials share is built once here: the config, the model, and a
    sample buffer per thread."""
    _check_spec(spec)
    row = _LEARNERS[spec.learner]
    config = _config(spec)
    n = resolve_n(spec)
    model = (ParetoModel(spec.true_xm, spec.true_shape) if row.pareto
             else ExpModel(spec.true_lambda))
    # One sample buffer per thread, freed with the experiment: allocating a
    # fresh one per trial page-faulted it in again each time.
    buffers = threading.local()

    def trial(i: int) -> TrialRecord:
        return _run_trial(spec, row, model, config, n, i, buffers)

    ids = range(spec.trials)
    if workers is not None and workers > 1 and n >= _POOL_MIN_N:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(trial, ids))
    else:
        records = tuple(map(trial, ids))

    successes = sum(1 for r in records if r.outcome == OUTCOME_SUCCESS)
    breakdown: dict = {}
    for r in records:
        if r.failure_name is not None:
            breakdown[r.failure_name] = breakdown.get(r.failure_name, 0) + 1
    breakdown = dict(sorted(breakdown.items()))
    produced = [r.estimate for r in records if r.estimate is not None]
    mean_est = math.fsum(produced) / len(produced) if produced else None
    median_est = float(statistics.median(produced)) if produced else None
    return ExperimentSummary(spec, n, successes / spec.trials, breakdown,
                             mean_est, median_est, records)


def run_sweep(spec: ExperimentSpec, n_values, workers: int | None = None) -> list:
    """One experiment per sample size; rows ordered as given."""
    rows = []
    for n in n_values:
        summary = run_experiment(replace(spec, n=int(n)), workers=workers)
        rows.append({"n": int(n), "success_rate": summary.success_rate,
                     "trials": spec.trials, "seed": spec.base_seed})
    return rows


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
    rng = RngStream(seed)
    data = sample(model, n, rng)
    body = "\n".join(map(repr, data.values.tolist()))
    try:
        with open(path, "w") as fh:
            fh.write(f"# seed={seed}\n{body}\n")
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
    uses_delta = row.uses_delta and clip_r is None
    _check_inputs(spec, row.needs if clip_r is None else (), uses_delta)
    data = Dataset._adopt(_read_checked(path, row.pareto))
    rng = RngStream(seed, noiseless=noiseless)
    budget = PrivacyBudget(epsilon, delta if uses_delta else 0.0)

    if clip_r is not None:
        estimate = private_mle(data, clip_r, budget, rng)
        route, extra = "mle", {}
    else:
        config = _config(spec)
        try:
            estimate, route, detail = row.run(data, spec, config, budget, rng)
        except NoBinSurvived:
            # An empty survivor set is a release too: no interval found.
            estimate, route, detail = None, learner.value, None
        extra = row.release(detail)

    spent_eps, spent_delta = budget.spent()
    payload = {"estimate": estimate, "route": route,
               "budget_spent": {"epsilon": spent_eps, "delta": spent_delta},
               "n": data.n}
    payload.update(extra)
    return payload
