import dataclasses
import hashlib
import inspect
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_on_path
from oracles import oracle_read_values

import privexp
from privexp import harness, learners
from privexp.dataset import RateBounds
from privexp.distributions import ExpModel, ParetoModel, sample
from privexp.errors import (IncompleteInputs, InputError, OutOfRegime,
                             PrivexpError)
from privexp.harness import (
    _LEARNERS,
    SWEEP_CSV_HEADER,
    ExperimentSpec,
    Learner,
    estimate_from_file,
    read_values,
    resolve_n,
    run_experiment,
    run_sweep,
    sweep_csv,
    write_sample,
)
from privexp.privacy import PrivacyBudget, RngStream

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
MID = RateBounds(0.1, 10.0)
WIDE = RateBounds(0.01, 100.0)


def quantile_spec(**overrides):
    base = dict(learner=Learner.QUANTILE, alpha=0.2, beta=0.1, epsilon=1.0,
                bounds=MID, true_lambda=1.0, n=500, trials=8, base_seed=0)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestResolveN:
    def test_explicit_n_wins(self):
        assert resolve_n(quantile_spec(n=77)) == 77

    def test_autosize_applies_safety_factor(self):
        spec = quantile_spec(n=None, bounds=WIDE)
        assert resolve_n(spec) == 4 * 154
        assert resolve_n(quantile_spec(n=None, bounds=WIDE,
                                       safety_factor=1.0)) == 154

    def test_autosize_bounds_finder(self):
        spec = ExperimentSpec(Learner.BOUNDS_FINDER, 0.2, 0.1, 1.0, delta=1e-6,
                              true_lambda=1.0, safety_factor=1.0)
        assert resolve_n(spec) == 14979

    def test_autosize_known_scale_uses_shape(self):
        spec = ExperimentSpec(Learner.PARETO_KNOWN_SCALE, 0.2, 0.1, 1.0,
                              bounds=WIDE, true_xm=1.0, true_shape=4.0,
                              safety_factor=1.0)
        assert resolve_n(spec) == 5106  # same pipeline as the rate-4 learner


class TestLearnerTable:
    def test_one_row_per_learner(self):
        assert set(_LEARNERS) == set(Learner)


class TestSpecValidation:
    def test_trials_positive(self):
        with pytest.raises(OutOfRegime):
            run_experiment(quantile_spec(trials=0))

    def test_n_positive(self):
        with pytest.raises(OutOfRegime):
            run_experiment(quantile_spec(n=0))

    @pytest.mark.parametrize("field, value", [
        ("n", 100.5), ("n", True), ("n", 10 ** 30), ("n", sys.maxsize + 1),
        ("trials", 2.5), ("trials", True)])
    def test_counts_are_ints_up_to_maxsize(self, field, value):
        # refused by name before anything of that size is allocated
        with pytest.raises(OutOfRegime, match=f"^{field} must be an int"):
            run_experiment(quantile_spec(**{field: value}))

    def test_sized_n_past_maxsize_is_refused(self):
        # the quantile bound at alpha 1e-12 is finite (about 3e25) but no
        # array of that size can be made
        spec = quantile_spec(n=None, alpha=1e-12)
        with pytest.raises(OutOfRegime, match="sized n"):
            resolve_n(spec)
        with pytest.raises(OutOfRegime, match="sized n"):
            run_experiment(spec)

    def test_exp_learner_needs_rate_and_bounds(self):
        with pytest.raises(IncompleteInputs):
            run_experiment(quantile_spec(true_lambda=None))
        with pytest.raises(IncompleteInputs):
            run_experiment(quantile_spec(bounds=None))

    def test_bounds_finder_needs_delta(self):
        spec = ExperimentSpec(Learner.BOUNDS_FINDER, 0.2, 0.1, 1.0,
                              true_lambda=1.0, n=100)
        with pytest.raises(IncompleteInputs):
            run_experiment(spec)

    def test_config_checked_before_trials(self):
        # a bad alpha, beta or epsilon is one error, not a failure per trial
        for bad in (dict(alpha=5.0), dict(beta=0.0), dict(epsilon=-1.0)):
            with pytest.raises(OutOfRegime):
                run_experiment(quantile_spec(**bad))

    def test_pareto_detail_is_released_values_only(self):
        # the scale is released; the exact count above the pivot is not
        spec = dataclasses.replace(tiny_spec(Learner.PARETO), trials=3)
        details = [r.detail for r in run_experiment(spec).records]
        assert details and all(d.keys() == {"scale_hat"} for d in details)

    def test_pareto_needs_truth(self):
        spec = ExperimentSpec(Learner.PARETO, 0.2, 0.1, 1.0, bounds=WIDE,
                              true_xm=1.0, n=100)
        with pytest.raises(IncompleteInputs):
            run_experiment(spec)


def tiny_spec(learner: Learner) -> ExperimentSpec:
    """A spec every learner completes on: Pareto(1, 2) or Exp(2) data."""
    row = _LEARNERS[learner]
    truth = (dict(true_xm=1.0, true_shape=2.0) if row.pareto
             else dict(true_lambda=2.0))
    return ExperimentSpec(learner, 0.2, 0.1, 1.0,
                          delta=1e-6 if row.uses_delta else 0.0, bounds=WIDE,
                          n=20_000, base_seed=5, **truth)


class TestNoiseSwitch:
    @pytest.mark.parametrize("learner", list(Learner), ids=lambda l: l.value)
    def test_noiseless_stream_draws_no_noise(self, learner):
        # the stream alone switches the noise off: every row runs through
        # all its mechanisms without one draw from the generator
        spec = tiny_spec(learner)
        row = _LEARNERS[learner]
        rng = RngStream(spec.base_seed, 0, noiseless=True)
        model = (ParetoModel(spec.true_xm, spec.true_shape) if row.pareto
                 else ExpModel(spec.true_lambda))
        data = sample(model, spec.n, rng)
        state = rng.generator.bit_generator.state
        budget = PrivacyBudget(spec.epsilon, spec.delta)
        row.run(data, spec, harness._config(spec), budget, rng)
        assert budget.spent() == (spec.epsilon, spec.delta)
        assert rng.laplace_draws == 0
        assert rng.generator.bit_generator.state == state

    def test_only_the_stream_and_the_user_switches_take_noiseless(self):
        takers = set()
        for name in privexp.__all__:
            obj = getattr(privexp, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # exception classes have none
                continue
            if "noiseless" in params:
                takers.add(name)
        assert takers == {"RngStream", "ExperimentSpec", "estimate_from_file"}


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        spec = quantile_spec()
        assert run_experiment(spec).to_json() == run_experiment(spec).to_json()

    def test_workers_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(harness, "_POOL_MIN_N", 1)  # threads at this n
        spec = quantile_spec(trials=16)
        serial = run_experiment(spec).to_json()
        parallel = run_experiment(spec, workers=4).to_json()
        assert serial == parallel

    def test_noiseless_trials_collapse(self):
        # every noiseless trial accepts the same grid position, so the
        # records agree in everything but the trial id
        spec = quantile_spec(n=10_000, trials=5, noiseless=True)
        summary = run_experiment(spec)
        dicts = [{k: v for k, v in r.to_dict().items() if k != "trial_id"}
                 for r in summary.records]
        assert all(d == dicts[0] for d in dicts)
        assert dicts[0]["estimate"] == 0.9847709021836102
        assert dicts[0]["outcome"] == "success"
        assert summary.success_rate == 1.0

    def test_records_ordered_by_trial_id(self, monkeypatch):
        monkeypatch.setattr(harness, "_POOL_MIN_N", 1)
        summary = run_experiment(quantile_spec(trials=12), workers=4)
        assert [r.trial_id for r in summary.records] == list(range(12))

    @pytest.mark.parametrize("n, pooled", [((1 << 16) - 1, False), (1 << 16, True)])
    def test_threads_only_from_the_pool_threshold(self, monkeypatch, n, pooled):
        # with workers, trials of fewer than 2^16 values run on the calling
        # thread, and larger ones on the pool's threads
        row = _LEARNERS[Learner.QUANTILE]
        threads = []

        def run(*args):
            threads.append(threading.get_ident())
            return row.run(*args)

        monkeypatch.setitem(_LEARNERS, Learner.QUANTILE, row._replace(run=run))
        run_experiment(quantile_spec(n=n, trials=3), workers=4)
        assert len(threads) == 3
        if pooled:
            assert threading.get_ident() not in threads
        else:
            assert set(threads) == {threading.get_ident()}

    def test_trial_streams_are_independent_of_count(self):
        # trial i uses stream i: adding trials never changes earlier records
        few = run_experiment(quantile_spec(trials=4)).records
        many = run_experiment(quantile_spec(trials=8)).records
        assert [r.to_dict() for r in few] == [r.to_dict() for r in many[:4]]


class TestBuiltOnce:
    def test_experiment_inputs_are_built_once(self, monkeypatch):
        # the config, the model and the search grids are the same for every
        # trial of an experiment, so they are built once, not per trial
        built = {"config": 0, "model": 0}

        def counted(cls, key):
            def build(*args):
                built[key] += 1
                return cls(*args)
            return build

        check_config = learners.LearnerConfig.__post_init__

        def counted_config(config):
            built["config"] += 1
            check_config(config)

        monkeypatch.setattr(learners.LearnerConfig, "__post_init__", counted_config)
        monkeypatch.setattr(harness, "ExpModel", counted(ExpModel, "model"))
        for learner, n, trials, grid_calls in ((Learner.QUANTILE, 500, 50, (1, 49)),
                                               (Learner.BEST_OF_BOTH, 5084, 10, (2, 28))):
            built.update(config=0, model=0)
            learners._search_grid.cache_clear()
            summary = run_experiment(quantile_spec(learner=learner, n=n, trials=trials))
            assert len(summary.records) == trials
            assert built == {"config": 1, "model": 1}, learner
            info = learners._search_grid.cache_info()
            assert (info.misses, info.hits) == grid_calls, learner


class TestSampleBuffer:
    """Each thread of an experiment samples its trials into one buffer."""

    @pytest.mark.parametrize("workers", [None, 4])
    @pytest.mark.parametrize("learner", list(Learner), ids=lambda l: l.value)
    def test_records_equal_a_replay_through_sample(self, learner, workers,
                                                   monkeypatch):
        # what a trial leaves in the buffer must not reach a later trial:
        # each record is the one fresh draws from sample() give
        monkeypatch.setattr(harness, "_POOL_MIN_N", 1)
        spec = dataclasses.replace(tiny_spec(learner), trials=5)
        row = _LEARNERS[learner]
        model = (ParetoModel(spec.true_xm, spec.true_shape) if row.pareto
                 else ExpModel(spec.true_lambda))
        for record in run_experiment(spec, workers=workers).records:
            rng = RngStream(spec.base_seed, record.trial_id)
            data = sample(model, spec.n, rng)
            budget = PrivacyBudget(spec.epsilon, spec.delta if row.uses_delta else 0.0)
            try:
                estimate, route, detail = row.run(data, spec, harness._config(spec),
                                                  budget, rng)
            except PrivexpError as exc:
                assert record.failure_name == type(exc).__name__
                continue
            assert record.estimate == estimate
            assert (record.route, record.detail) == (route, detail)

    def test_sample_returns_a_fresh_read_only_array(self):
        first = sample(ExpModel(1.0), 1000, RngStream(0)).values
        second = sample(ExpModel(1.0), 1000, RngStream(0)).values
        assert not first.flags.writeable and not second.flags.writeable
        assert not np.shares_memory(first, second)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="page-fault counts depend on the allocator")
    def test_later_trials_fault_in_no_pages(self):
        # The first trial of an experiment may fault its buffer in (the
        # allocator can hand freed pages back between experiments); each
        # further trial must not, where a fresh sample, tail and sum buffers
        # per trial cost about 400 minor faults at this n.
        pytest.importorskip("resource")
        probe = (
            "import resource\n"
            "from privexp import ExperimentSpec, Learner, RateBounds, run_experiment\n"
            "def faults(trials):\n"
            "    spec = ExperimentSpec(Learner.PARETO, 0.2, 0.1, 1.0,\n"
            "                          bounds=RateBounds(0.01, 100.0), true_xm=1.0,\n"
            "                          true_shape=2.0, n=112_324, trials=trials)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    run_experiment(spec)\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "for _ in range(3):\n"
            "    faults(2)\n"
            "print(max((faults(10) - faults(2)) / 8 for _ in range(3)))\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=src_on_path(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 40


class TestSummary:
    def test_breakdown_counts_failures(self):
        # rate far outside the declared bounds: every trial exhausts search
        spec = quantile_spec(true_lambda=1.0, bounds=RateBounds(50.0, 100.0),
                             trials=6)
        summary = run_experiment(spec)
        assert summary.success_rate == 0.0
        assert summary.failure_breakdown == {"SearchExhausted": 6}
        assert summary.mean_estimate is None
        assert summary.median_estimate is None

    def test_mean_and_median_over_produced_estimates(self):
        summary = run_experiment(quantile_spec(n=10_000, trials=5, noiseless=True))
        # the mean divides an exact fsum, so it can sit one ulp off the
        # common value; the median picks an actual record and stays exact
        assert summary.mean_estimate == pytest.approx(0.9847709021836102, rel=1e-15)
        assert summary.median_estimate == 0.9847709021836102

    def test_json_shape(self):
        import json
        payload = json.loads(run_experiment(quantile_spec(trials=2)).to_json())
        assert set(payload) == {
            "learner", "alpha", "beta", "epsilon", "delta", "bounds",
            "noiseless", "true_lambda", "true_xm", "true_shape", "tau", "n",
            "trials", "base_seed", "safety_factor", "success_rate",
            "failure_breakdown", "mean_estimate", "median_estimate", "records"}
        assert payload["bounds"] == [0.1, 10.0]
        assert len(payload["records"]) == 2
        assert set(payload["records"][0]) == {
            "trial_id", "outcome", "estimate", "route", "failure_name", "detail"}


class TestSweep:
    def test_single_row_matches_experiment(self):
        spec = quantile_spec(trials=20)
        rows = run_sweep(spec, [300])
        from dataclasses import replace
        direct = run_experiment(replace(spec, n=300))
        assert rows == [{"n": 300, "success_rate": direct.success_rate,
                         "trials": 20, "seed": 0}]

    def test_csv_format(self):
        rows = [{"n": 300, "success_rate": 0.5, "trials": 20, "seed": 0},
                {"n": 600, "success_rate": 0.85, "trials": 20, "seed": 0}]
        assert sweep_csv(rows) == ("n,success_rate,trials,seed\n"
                                   "300,0.5,20,0\n600,0.85,20,0\n")
        assert sweep_csv(rows).splitlines()[0] == SWEEP_CSV_HEADER

    def test_success_rate_climbs_with_n(self):
        spec = quantile_spec(n=None, trials=400, base_seed=7)
        rows = run_sweep(spec, [40, 80, 160, 320, 640, 1280, 2560])
        rates = [row["success_rate"] for row in rows]
        pairs = list(zip(rates, rates[1:]))
        nondecreasing = sum(1 for a, b in pairs if b >= a)
        assert nondecreasing >= 0.8 * len(pairs)
        assert rates[-1] >= 0.95

    def test_route_shift_across_rates(self):
        # the adaptive learner switches from the quantile route to the MLE
        # route as the true rate grows
        majorities = {}
        for lam in (0.2, 1.0, 5.0):
            spec = ExperimentSpec(Learner.BEST_OF_BOTH, 0.2, 0.1, 1.0,
                                  bounds=WIDE, true_lambda=lam, n=2000,
                                  trials=100, base_seed=3)
            records = run_experiment(spec).records
            mle = sum(1 for r in records if r.route == "mle")
            majorities[lam] = mle / len(records)
        assert majorities[0.2] <= 0.1
        assert majorities[5.0] >= 0.9


# Sample files at the edges of the accepted input: one value, all zeros,
# values near the float maximum (mixed with small ones, so a Pareto scale
# below 1 makes x / x_m overflow), and heavy ties.
_EDGE_FILES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(lambda v: [v]),
    st.integers(1, 300).map(lambda k: [0.0] * k),
    st.lists(st.one_of(st.floats(1e307, sys.float_info.max),
                       st.floats(0.5, 10.0)), min_size=1, max_size=300),
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=20,
                              max_size=300)),
)

# Line pieces for the reader equivalence test: padding that str.strip removes
# (the last three also end a line for str.splitlines), tokens float() takes
# or rejects, and the universal line endings (or none, which joins lines).
_PADS = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\x0b", "\x1c"])
_TOKENS = st.one_of(
    st.sampled_from(["1_000", "+1.5", "-0.0", "1e-320", "nan", "inf", "-1",
                     "0", "abc", "2.5", "1\x0c5", "3\x0b4", "", "#", "# 1.0",
                     " # x", "#abc", "1 2", "2.5 # x", "1\t2", "1 2 3"]),
    st.floats(min_value=0.0, allow_infinity=False).map(repr))
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r", ""])
_MIXED_FILES = st.lists(st.tuples(_PADS, _TOKENS, _PADS, _ENDINGS),
                        max_size=12).map(
    lambda lines: "".join(a + token + b + end for a, token, b, end in lines))
# Files in the shape the bulk parser takes: a head of blank and '#' lines,
# then one float repr per line (in half the files any float, which may fail
# the value check), with one line ending throughout and maybe none at the end.
_BULK_FILES = st.builds(
    lambda head, values, end, last: end.join(head + values) + end * last,
    st.lists(st.sampled_from(["", " \t", "#", "# seed=1", " # note"]),
             max_size=3),
    st.one_of(*(st.lists(floats.map(repr), min_size=1, max_size=12)
                for floats in (st.floats(min_value=0.0, allow_infinity=False),
                               st.floats()))),
    st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())


def _read_outcome(reader, path, require_positive):
    """The values' reprs (so -0.0 differs from 0.0), or the error's message
    and line."""
    try:
        values = reader(path, require_positive=require_positive)
    except InputError as exc:
        return "error", str(exc), exc.line
    return type(values), [repr(v) for v in values]


class TestSampleFiles:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "sample.txt"
        write_sample(path, ExpModel(2.0), 50, seed=9)
        text = path.read_text()
        assert text.startswith("# seed=9\n")
        values = read_values(path)
        expected = sample(ExpModel(2.0), 50, RngStream(9))
        assert values == list(expected.values)
        assert read_values(os.fsencode(path)) == values

    def test_pareto_model_supported(self, tmp_path):
        path = tmp_path / "pareto.txt"
        write_sample(path, ParetoModel(1.0, 2.0), 10, seed=1)
        assert len(read_values(path)) == 10

    def test_bad_line_reports_position(self):
        with pytest.raises(InputError) as exc_info:
            read_values(os.path.join(DATA_DIR, "bad_line.txt"))
        assert exc_info.value.line == 3
        assert "line 3" in str(exc_info.value)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("# header\n\n1.5\n\n# note\n2.5\n")
        assert read_values(path) == [1.5, 2.5]

    def test_value_validation(self, tmp_path):
        for body, line in [("1.0\n-2.0\n", 2), ("inf\n", 1), ("nan\n", 1)]:
            path = tmp_path / "bad.txt"
            path.write_text(body)
            with pytest.raises(InputError) as exc_info:
                read_values(path)
            assert exc_info.value.line == line

    def test_require_positive_rejects_zero(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("1.0\n0.0\n")
        assert read_values(path) == [1.0, 0.0]
        with pytest.raises(InputError) as exc_info:
            read_values(path, require_positive=True)
        assert exc_info.value.line == 2

    def test_missing_file_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError) as exc_info:
            read_values(tmp_path / "nope.txt")
        assert exc_info.value.line is None

    def test_written_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "pinned.txt"
        write_sample(path, ExpModel(2.0), 4, seed=9)
        assert path.read_bytes() == (b"# seed=9\n0.15468434160226793\n"
                                     b"0.298226042433971\n1.0249023772671757\n"
                                     b"0.14939022386059694\n")
        write_sample(path, ParetoModel(1.3, 2.5), 2000, seed=7)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "570c6c7369560b03fbb33ed07d718aeee33e1bb96672dd963ce49f0641285fe2")

    def test_returns_a_list(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("1.5\n2.5\n")
        values = read_values(path)
        assert type(values) is list
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("body", [b"1.0\n\xff2.0\n", b"\xff", b"1\n\xc3(\n"])
    def test_undecodable_file_is_an_input_error(self, tmp_path, body):
        path = tmp_path / "binary.txt"
        path.write_bytes(body)
        got = _read_outcome(read_values, path, False)
        assert got[0] == "error" and got[2] is None
        assert got == _read_outcome(oracle_read_values, path, False)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "two_bad.txt"
        path.write_text("-1\nabc\n")
        with pytest.raises(InputError, match="negative value") as exc_info:
            read_values(path)
        assert exc_info.value.line == 1

    def test_only_universal_newlines_split_lines(self, tmp_path):
        # str.splitlines would also split at the form feed and \x1c; a text
        # file iterated line by line does not
        path = tmp_path / "separators.txt"
        path.write_bytes(b"1\r\n2\r3\n4\x0c5\n")
        with pytest.raises(InputError) as exc_info:
            read_values(path)
        assert exc_info.value.line == 4
        path.write_bytes(b"1\r\n2\r3\n\x0c4\x1c\n")
        assert read_values(path) == [1.0, 2.0, 3.0, 4.0]

    @staticmethod
    def _assert_matches_oracle(text, require_positive):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "values.txt")
            with open(path, "wb") as fh:
                fh.write(text.encode("ascii"))
            want = _read_outcome(oracle_read_values, path, require_positive)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _read_outcome(read_values, path, require_positive)
        assert got == want

    @settings(max_examples=300)
    @given(_MIXED_FILES, st.booleans())
    def test_matches_per_line_oracle(self, text, require_positive):
        self._assert_matches_oracle(text, require_positive)

    @settings(max_examples=200)
    @given(_BULK_FILES, st.booleans())
    def test_bulk_shaped_files_match_per_line_oracle(self, text,
                                                     require_positive):
        self._assert_matches_oracle(text, require_positive)

    @pytest.mark.parametrize("via", ["dev_fd", "fd"])
    @pytest.mark.parametrize("n", [3, 5000])
    def test_pipe_is_read_once(self, tmp_path, via, n):
        # a pipe cannot be reopened: the reader must not scan it, then let
        # loadtxt reopen it by name and parse only what the scan left
        if via == "dev_fd" and not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        path = tmp_path / "sample.txt"
        write_sample(path, ExpModel(2.0), n, seed=4)
        body = path.read_bytes()
        r, w = os.pipe()

        def feed():
            with open(w, "wb") as fh:
                fh.write(body)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            got = read_values(f"/dev/fd/{r}" if via == "dev_fd" else r)
        finally:
            writer.join(timeout=10)
            if via == "dev_fd":
                os.close(r)  # an int descriptor is closed by the reader
        assert got == oracle_read_values(path)
        assert len(got) == n

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix(self, tmp_path, suffix):
        # loadtxt would open these names through a decompressor
        path = tmp_path / f"sample.txt{suffix}"
        write_sample(path, ExpModel(2.0), 50, seed=4)
        assert read_values(path) == oracle_read_values(path)
        assert len(read_values(str(path))) == 50

    @pytest.mark.parametrize("body", [b"", b"# a\n#b\n", b"\n \n\t\n",
                                      b"1 2\n"])
    def test_files_without_a_value_column_match_oracle(self, tmp_path, body):
        # no value line, where loadtxt would warn of empty input, and a
        # second column, which it would take as one row of two
        path = tmp_path / "shape.txt"
        path.write_bytes(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read_outcome(read_values, path, False)
        assert got == _read_outcome(oracle_read_values, path, False)

    @pytest.mark.parametrize("model", [ExpModel(2.0), ParetoModel(1.3, 2.5)])
    def test_written_samples_take_the_bulk_path(self, tmp_path, monkeypatch,
                                                model):
        def refuse(path, require_positive):
            raise AssertionError("the per-line parser ran")
        monkeypatch.setattr(harness, "_parse_lines", refuse)
        path = tmp_path / "sample.txt"
        write_sample(path, model, 2000, seed=3)
        want = sample(model, 2000, RngStream(3)).values.tolist()
        assert read_values(path) == want
        assert read_values(path, require_positive=True) == want

    def test_comment_after_a_value_is_read_line_by_line(self, tmp_path,
                                                        monkeypatch):
        parse, calls = harness._parse_lines, []

        def spy(path, require_positive):
            calls.append(path)
            return parse(path, require_positive)
        monkeypatch.setattr(harness, "_parse_lines", spy)
        path = tmp_path / "late_comment.txt"
        path.write_text("# head\n1.5\n# note\n2.5\n")
        assert read_values(path) == oracle_read_values(path) == [1.5, 2.5]
        assert calls == [path]


class TestEstimateFromFile:
    ONES = os.path.join(DATA_DIR, "ones.txt")

    def test_fixed_clip_debug_path(self):
        payload = estimate_from_file(self.ONES, Learner.MLE, epsilon=1.0,
                                     noiseless=True, clip_r=2.0)
        assert payload == {"estimate": 1.0, "route": "mle",
                           "budget_spent": {"epsilon": 1.0, "delta": 0.0},
                           "n": 4}

    def test_full_learner_on_generated_file(self, tmp_path):
        path = tmp_path / "exp2.txt"
        write_sample(path, ExpModel(2.0), 10_000, seed=4)
        payload = estimate_from_file(path, Learner.BEST_OF_BOTH, alpha=0.2,
                                     beta=0.1, epsilon=1.0, bounds=WIDE)
        assert payload["route"] in ("mle", "quantile")
        assert payload["estimate"] > 0
        assert payload["budget_spent"] == {"epsilon": 1.0, "delta": 0.0}
        assert payload["n"] == 10_000

    def test_bounds_finder_payload(self, tmp_path):
        path = tmp_path / "exp1.txt"
        write_sample(path, ExpModel(1.0), 100_000, seed=5)
        payload = estimate_from_file(path, Learner.BOUNDS_FINDER, epsilon=1.0,
                                     delta=1e-6)
        assert payload["estimate"] is None
        assert payload["route"] == "bounds-finder"
        lo, hi = payload["bounds_found"]
        assert lo < 1.0 < hi
        assert math.isclose(hi / lo, 4.0)
        assert payload["budget_spent"] == {"epsilon": 1.0, "delta": 1e-6}

    def test_bounds_finder_payload_without_survivors(self):
        # four values cannot clear the release threshold: the payload says
        # no interval was found, and the budget is still spent
        payload = estimate_from_file(self.ONES, Learner.BOUNDS_FINDER,
                                     epsilon=1.0, delta=1e-6)
        assert payload == {"estimate": None, "route": "bounds-finder",
                           "bounds_found": None, "n": 4,
                           "budget_spent": {"epsilon": 1.0, "delta": 1e-6}}

    @pytest.mark.parametrize("learner, extra", [
        (Learner.MLE, set()),
        (Learner.QUANTILE, set()),
        (Learner.BEST_OF_BOTH, set()),
        (Learner.BOUNDS_FINDER, {"bounds_found"}),
        (Learner.PARETO, {"scale_hat"}),
        (Learner.PARETO_KNOWN_SCALE, set()),
    ])
    def test_payload_keys(self, tmp_path, learner, extra):
        # only released values: never the count above the Pareto pivot, nor
        # the adaptive learner's coarse estimate
        pareto = learner in (Learner.PARETO, Learner.PARETO_KNOWN_SCALE)
        path = tmp_path / "data.txt"
        write_sample(path, ParetoModel(1.3, 2.5) if pareto else ExpModel(2.0),
                     60_000 if pareto else 20_000, seed=7)
        payload = estimate_from_file(path, learner, alpha=0.2, beta=0.1,
                                     epsilon=1.0, delta=1e-6, bounds=WIDE,
                                     seed=3, known_scale=1.3)
        assert set(payload) == {"estimate", "route", "budget_spent", "n"} | extra
        assert "tail_count" not in payload

    def test_pareto_payload_has_scale(self, tmp_path):
        path = tmp_path / "par.txt"
        write_sample(path, ParetoModel(1.0, 2.0), 20_000, seed=6)
        payload = estimate_from_file(path, Learner.PARETO, alpha=0.2, beta=0.1,
                                     epsilon=1.0, bounds=WIDE)
        assert payload["scale_hat"] > 0
        assert payload["estimate"] > 0

    def test_known_scale_requires_scale(self):
        with pytest.raises(IncompleteInputs):
            estimate_from_file(self.ONES, Learner.PARETO_KNOWN_SCALE, alpha=0.2,
                               beta=0.1, epsilon=1.0, bounds=WIDE)

    @pytest.mark.parametrize("learner", list(Learner))
    @settings(max_examples=25)
    @given(values=_EDGE_FILES, noiseless=st.booleans())
    def test_edge_files_release_or_fail_by_name(self, learner, values,
                                                 noiseless):
        known_scale = min((v for v in values if v > 0.0), default=1.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edge.txt")
            with open(path, "w") as fh:
                fh.write("".join(f"{v!r}\n" for v in values))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert read_values(path) == values
                try:
                    payload = estimate_from_file(
                        path, learner, alpha=0.2, beta=0.1, epsilon=1.0,
                        delta=1e-6, bounds=WIDE, seed=1, noiseless=noiseless,
                        known_scale=known_scale)
                except PrivexpError:
                    return
        assert payload["n"] == len(values)
        estimate = payload["estimate"]
        assert estimate is None or (math.isfinite(estimate) and estimate > 0)

    def test_pareto_rejects_zero_values(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("1.0\n0.0\n2.0\n")
        with pytest.raises(InputError):
            estimate_from_file(path, Learner.PARETO, alpha=0.2, beta=0.1,
                               epsilon=1.0, bounds=WIDE)
