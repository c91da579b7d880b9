import json
import math
import os
import subprocess
import sys

import pytest

from conftest import src_on_path
from privexp import cli, harness
from privexp.cli import build_parser, main
from privexp.harness import _LEARNERS, Learner

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
ONES = os.path.join(DATA_DIR, "ones.txt")

EXPERIMENT_ARGS = ["--learner", "quantile", "--alpha", "0.2", "--beta", "0.1",
                   "--epsilon", "1", "--lambda-min", "0.1", "--lambda-max", "10",
                   "--true-lambda", "1"]


def golden(name: str) -> bytes:
    with open(os.path.join(DATA_DIR, name), "rb") as fh:
        return fh.read()


class TestGen:
    def test_writes_seeded_file(self, tmp_path):
        out = tmp_path / "data.txt"
        rc = main(["gen", "--dist", "exp", "--rate", "2", "--n", "25",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=3"
        assert len(lines) == 26
        assert all(float(line) >= 0 for line in lines[1:])

    def test_pareto_generation(self, tmp_path):
        out = tmp_path / "p.txt"
        rc = main(["gen", "--dist", "pareto", "--xm", "1", "--shape", "2",
                   "--n", "10", "--out", str(out)])
        assert rc == 0
        assert all(float(v) >= 1.0 for v in out.read_text().splitlines()[1:])

    def test_missing_model_params(self, tmp_path, capsys):
        rc = main(["gen", "--dist", "exp", "--n", "5",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--rate", "1", "--n", "100", "--seed", "9", "--out", str(a)])
        main(["gen", "--rate", "1", "--n", "100", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestLearnerChoices:
    def test_choices_come_from_the_learner_table(self, monkeypatch):
        argvs = [["estimate", "--in", ONES, "--learner", "pareto"],
                 ["experiment", "--learner", "pareto"]]
        for argv in argvs:
            assert build_parser().parse_args(argv).learner == "pareto"
        monkeypatch.delitem(_LEARNERS, Learner.PARETO)
        for argv in argvs:
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestParser:
    def test_main_builds_one_parser_and_build_parser_a_fresh_one(self, monkeypatch, capsys):
        built = []

        def counted():
            built.append(build_parser())
            return built[-1]
        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            argv = ["packing", "--alpha", "0.2", "--lambda-min", "1", "--lambda-max", "10"]
            outputs = []
            for _ in range(3):
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert outputs == [outputs[0]] * 3
        assert build_parser() is not build_parser()


class TestEstimate:
    def test_golden_fixed_clip(self, tmp_path):
        out = tmp_path / "est.json"
        rc = main(["estimate", "--in", ONES, "--learner", "mle", "--epsilon", "1",
                   "--clip-r", "2", "--noiseless", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == golden("golden_estimate.json")

    def test_pipeline_gen_then_estimate(self, tmp_path):
        data = tmp_path / "exp2.txt"
        main(["gen", "--rate", "2", "--n", "10000", "--seed", "4",
              "--out", str(data)])
        out = tmp_path / "est.json"
        rc = main(["estimate", "--in", str(data), "--learner", "best-of-both",
                   "--alpha", "0.2", "--beta", "0.1", "--epsilon", "1",
                   "--lambda-min", "0.01", "--lambda-max", "100",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["route"] in ("mle", "quantile")
        assert payload["estimate"] > 0
        assert payload["n"] == 10000

    def test_parse_error_exit_code(self, capsys):
        rc = main(["estimate", "--in", os.path.join(DATA_DIR, "bad_line.txt"),
                   "--learner", "mle", "--alpha", "0.2", "--beta", "0.1",
                   "--epsilon", "1", "--lambda-min", "0.1", "--lambda-max", "10"])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        rc = main(["estimate", "--in", str(tmp_path / "nope.txt"),
                   "--learner", "mle", "--alpha", "0.2", "--beta", "0.1",
                   "--epsilon", "1", "--lambda-min", "0.1", "--lambda-max", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.txt" in err

    def test_undecodable_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"1.0\n\xff2.0\n")
        assert_one_error_line(capsys, ["estimate", "--in", str(path), *MLE_RUN],
                              "decode")

    def test_half_specified_bounds(self, capsys):
        rc = main(["estimate", "--in", ONES, "--learner", "mle", "--alpha", "0.2",
                   "--beta", "0.1", "--epsilon", "1", "--lambda-min", "0.1"])
        assert rc == 2
        assert "lambda-max" in capsys.readouterr().err


class TestExperimentAndSweep:
    def test_golden_experiment(self, tmp_path):
        out = tmp_path / "summary.json"
        rc = main(["experiment", *EXPERIMENT_ARGS, "--n", "10000",
                   "--trials", "3", "--noiseless", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == golden("golden_experiment.json")

    def test_golden_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", *EXPERIMENT_ARGS, "--trials", "20",
                   "--n-grid", "100,600", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == golden("golden_sweep.csv")

    def test_workers_flag_preserves_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_POOL_MIN_N", 1)  # threads at this n
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        base = ["experiment", *EXPERIMENT_ARGS, "--n", "400", "--trials", "12"]
        assert main([*base, "--workers", "1", "--out", str(serial)]) == 0
        assert main([*base, "--workers", "4", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        rc = main(["experiment", *EXPERIMENT_ARGS, "--n", "200", "--trials", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 2

    def test_invalid_spec_exit_code(self, capsys):
        rc = main(["experiment", "--learner", "quantile", "--alpha", "0.2",
                   "--beta", "0.1", "--epsilon", "1", "--lambda-min", "0.1",
                   "--lambda-max", "10", "--n", "100"])
        assert rc == 2
        assert "true_lambda" in capsys.readouterr().err


class TestCalc:
    def test_json_payload(self, capsys):
        rc = main(["calc", "--bound", "quantile-search", "--alpha", "0.2",
                   "--beta", "0.1", "--epsilon", "1", "--lambda-min", "1",
                   "--lambda-max", "100"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"bound": "quantile-search", "n_required": 781,
                           "exact_constants": True,
                           "inputs": {"alpha": 0.2, "beta": 0.1, "epsilon": 1.0,
                                      "bounds": [1.0, 100.0]}}

    def test_rate_flag_feeds_lam(self, capsys):
        rc = main(["calc", "--bound", "best-of-both", "--alpha", "0.2",
                   "--beta", "0.1", "--epsilon", "1", "--rate", "5",
                   "--lambda-min", "0.01", "--lambda-max", "100"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_required"] == 9236
        assert not payload["exact_constants"]

    def test_missing_inputs_exit_code(self, capsys):
        rc = main(["calc", "--bound", "clipped-mle", "--alpha", "0.2",
                   "--beta", "0.1", "--epsilon", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lam" in err and "clip_r" in err


class TestLowerboundAndPacking:
    def test_lowerbound_prints_integer(self, capsys):
        ratio = math.exp(16.0 * 0.1 * 0.1 * math.e)
        rc = main(["lowerbound", "--alpha", "0.1", "--beta", "0.1",
                   "--epsilon", "1", "--lambda-min", "1",
                   "--lambda-max", repr(ratio)])
        assert rc == 0
        assert capsys.readouterr().out == "2\n"

    def test_packing_prints_rates(self, capsys):
        rc = main(["packing", "--alpha", "0.1", "--lambda-min", "1",
                   "--lambda-max", "10"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        rates = [float(line) for line in lines]
        assert rates[0] == 1.0
        for a, b in zip(rates, rates[1:]):
            assert math.isclose(b / a, 1.8, rel_tol=1e-12)


BOUNDS_ARGS = ["--lambda-min", "0.1", "--lambda-max", "10"]
MLE_RUN = ["--learner", "mle", "--alpha", "0.2", "--beta", "0.1",
           "--epsilon", "1", *BOUNDS_ARGS]
MLE_EXPERIMENT = ["experiment", *MLE_RUN, "--true-lambda", "1", "--trials", "2"]
CALC_BOUNDS_FINDER = ["calc", "--bound", "bounds-finder", "--beta", "0.1", "--epsilon", "1"]


def assert_one_error_line(capsys, argv, word):
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and word in lines[0]


class TestInputErrors:
    # a missing or out-of-range input is one "error:" line and exit 2,
    # never a traceback

    @pytest.mark.parametrize("argv, word", [
        (["estimate", "--in", ONES, "--learner", "mle", "--beta", "0.1",
          "--epsilon", "1", *BOUNDS_ARGS], "alpha"),
        (["estimate", "--in", ONES, "--learner", "mle", "--alpha", "0.2",
          "--beta", "0.1", *BOUNDS_ARGS], "epsilon"),
        (["estimate", "--in", ONES, "--learner", "quantile", "--alpha", "0.2",
          "--beta", "0.1", "--epsilon", "1"], "bounds"),
        (["estimate", "--in", ONES, "--learner", "bounds-finder",
          "--epsilon", "1"], "delta"),
        (["experiment", "--learner", "mle", "--n", "100", "--beta", "0.1",
          "--epsilon", "1", *BOUNDS_ARGS, "--true-lambda", "1"], "alpha"),
        (["estimate", "--in", ONES, "--learner", "mle", "--clip-r", "2"],
         "epsilon"),
        # lowerbound names what it misses as calc --bound packing-lower-bound does
        (["lowerbound", "--beta", "0.1", "--epsilon", "1", *BOUNDS_ARGS],
         "packing-lower-bound needs alpha"),
        (["lowerbound", "--alpha", "0.1", "--epsilon", "1", *BOUNDS_ARGS],
         "packing-lower-bound needs beta"),
        (["lowerbound", "--alpha", "0.1", "--beta", "0.1", *BOUNDS_ARGS],
         "packing-lower-bound needs epsilon"),
        (["lowerbound", "--alpha", "0.1", "--beta", "0.1", "--epsilon", "1"],
         "--lambda-min and --lambda-max"),
        (["packing", *BOUNDS_ARGS], "--alpha"),
        (["packing", "--alpha", "0.1"], "--lambda-min and --lambda-max"),
        (["gen", "--dist", "pareto", "--shape", "2", "--n", "5", "--out", "f.txt"],
         "--xm"),
        (["gen", "--dist", "pareto", "--xm", "1", "--n", "5", "--out", "f.txt"],
         "--shape"),
    ], ids=["estimate-alpha", "estimate-epsilon", "estimate-bounds",
            "estimate-delta", "experiment-alpha", "estimate-clip-epsilon",
            "lowerbound-alpha", "lowerbound-beta", "lowerbound-epsilon",
            "lowerbound-bounds", "packing-alpha", "packing-bounds",
            "gen-pareto-xm", "gen-pareto-shape"])
    def test_missing_input(self, capsys, monkeypatch, tmp_path, argv, word):
        monkeypatch.chdir(tmp_path)
        assert_one_error_line(capsys, argv, word)
        assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("argv, word", [
        ([*MLE_EXPERIMENT, "--n", "100", "--alpha", "5"], "alpha"),
        ([*MLE_EXPERIMENT, "--n", "100", "--beta", "1"], "beta"),
        ([*MLE_EXPERIMENT, "--n", "100", "--epsilon", "-1"], "epsilon"),
        ([*MLE_EXPERIMENT, "--epsilon", "-1"], "epsilon"),
        ([*MLE_EXPERIMENT, "--n", "100", "--trials", "0"], "trials"),
        ([*MLE_EXPERIMENT, "--n", "0"], "n must"),
        (["sweep", *MLE_RUN, "--true-lambda", "1", "--n-grid", "10,abc"],
         "abc"),
        (["sweep", *MLE_RUN, "--true-lambda", "1", "--n-grid", ",", "--out", "f.txt"],
         "--n-grid"),
        (["estimate", "--in", ONES, *MLE_RUN, "--delta", "2"], "delta"),
        (["estimate", "--in", ONES, "--learner", "mle", "--epsilon", "1",
          "--clip-r", "-1"], "clipping"),
        ([*MLE_EXPERIMENT, "--n", "100", "--delta", "2"], "delta"),
        ([*MLE_EXPERIMENT, "--delta", "2"], "delta"),
        (["estimate", "--in", ONES, "--learner", "mle", "--epsilon", "1",
          "--clip-r", "2", "--delta", "2"], "delta"),
        ([*MLE_EXPERIMENT, "--safety-factor", "nan"], "safety_factor"),
        (["estimate", "--in", "near_max.txt", "--learner", "mle", "--epsilon",
          "1", "--clip-r", "1e308"], "clip_r"),
        (["gen", "--rate", "2", "--n", "100", "--seed", "-1", "--out", "f.txt"],
         "seed"),
        (["estimate", "--in", ONES, *MLE_RUN, "--seed", "-1"], "seed"),
        ([*MLE_EXPERIMENT, "--n", "100", "--seed", "-1"], "seed"),
        (["sweep", *MLE_RUN, "--true-lambda", "1", "--n-grid", "100",
          "--seed", "-1"], "seed"),
        ([*MLE_EXPERIMENT, "--n", "100", "--workers", "0"], "workers must"),
        ([*MLE_EXPERIMENT, "--n", "100", "--workers", "-3"], "workers must"),
        (["sweep", *MLE_RUN, "--true-lambda", "1", "--n-grid", "100",
          "--workers", "0", "--out", "f.txt"], "workers must"),
        # delta lies in [0, 1), 0 meaning pure DP, whether the bound reads it or not
        *(([*CALC_BOUNDS_FINDER, "--delta", delta], "delta must lie in [0")
          for delta in ("-1", "nan", "1.5")),
        (["calc", "--bound", "svt-quantile", "--beta", "0.1", "--epsilon", "1",
          *BOUNDS_ARGS, "--delta", "1.5"], "delta must lie in [0"),
        # the working directory is no file to write
        (["calc", "--bound", "quantile-search", "--alpha", "0.2", "--beta", "0.1",
          "--epsilon", "1", *BOUNDS_ARGS, "--out", "."], "Is a directory"),
        (["gen", "--rate", "2", "--n", "5", "--out", "."], "Is a directory"),
    ], ids=["alpha", "beta", "epsilon", "epsilon-autosized", "trials", "n",
            "n-grid", "n-grid-empty", "delta", "clip-r", "experiment-delta",
            "experiment-delta-autosized", "clip-r-delta", "safety-factor",
            "clipped-sum-overflow", "gen-seed", "estimate-seed",
            "experiment-seed", "sweep-seed", "experiment-workers-zero",
            "experiment-workers-negative", "sweep-workers-zero",
            "calc-delta-negative",
            "calc-delta-nan", "calc-delta-above-one", "calc-delta-unread",
            "out-directory", "gen-out-directory"])
    def test_out_of_range_input(self, capsys, monkeypatch, tmp_path, argv, word):
        # near_max.txt: two values whose sum clipped at 1e308 is past the
        # largest double
        (tmp_path / "near_max.txt").write_text("1.7e308\n1.7e308\n")
        monkeypatch.chdir(tmp_path)
        assert_one_error_line(capsys, argv, word)
        assert not (tmp_path / "f.txt").exists()


    @pytest.mark.parametrize("argv, word", [
        (["calc", "--bound", "mle-learning", "--alpha", "0.2", "--beta", "0.1",
          "--epsilon", "-1", *BOUNDS_ARGS, "--rate", "1"], "epsilon"),
        (["calc", "--bound", "mle-learning", "--alpha", "5", "--beta", "0.1",
          "--epsilon", "1", *BOUNDS_ARGS, "--rate", "1"], "alpha"),
        (["calc", "--bound", "bounds-finder", "--beta", "1", "--epsilon", "1",
          "--delta", "1e-6"], "beta"),
        (["calc", "--bound", "svt-quantile", "--beta", "0.1", "--epsilon",
          "inf", *BOUNDS_ARGS], "epsilon"),
        (["lowerbound", "--alpha", "0.2", "--beta", "0.1", "--epsilon", "-1",
          *BOUNDS_ARGS], "epsilon"),
        (["calc", "--bound", "mle-learning", "--alpha", "0.2", "--beta", "0.1",
          "--epsilon", "1", *BOUNDS_ARGS, "--rate", "0"], "lam"),
        (["calc", "--bound", "mle-learning", "--alpha", "0.2", "--beta", "0.1",
          "--epsilon", "1", *BOUNDS_ARGS, "--rate", "-1"], "lam"),
        (["calc", "--bound", "pareto-learning", "--alpha", "0.2", "--beta",
          "0.1", "--epsilon", "1", *BOUNDS_ARGS, "--rate", "2", "--tau", "1.5"],
         "tau"),
        (["calc", "--bound", "bounds-finder", "--beta", "0.1", "--epsilon", "1",
          "--delta", "2"], "delta"),
    ], ids=["calc-epsilon", "calc-alpha", "calc-beta", "calc-epsilon-inf",
            "lowerbound-epsilon", "calc-rate-zero", "calc-rate-negative",
            "calc-tau", "calc-delta"])
    def test_calculator_out_of_regime(self, capsys, argv, word):
        assert_one_error_line(capsys, argv, word)


class TestDeltaCharge:
    # delta is range-checked for every learner but charged only to a run
    # that spends it, the same way in estimate as in a trial

    @pytest.mark.parametrize("argv, charged", [
        ([*MLE_RUN, "--delta", "0.1"], 0.0),
        (["--learner", "mle", "--epsilon", "1", "--clip-r", "2",
          "--delta", "0.1"], 0.0),
        (["--learner", "bounds-finder", "--epsilon", "1", "--delta", "0.1"],
         0.1),
    ], ids=["mle", "clip-r", "bounds-finder"])
    def test_estimate_charges_only_spent_delta(self, capsys, argv, charged):
        assert main(["estimate", "--in", ONES, "--noiseless", *argv]) == 0
        spent = json.loads(capsys.readouterr().out)["budget_spent"]
        assert spent == {"epsilon": 1.0, "delta": charged}


class TestConsoleEntry:
    def test_module_invocation_round_trip(self, tmp_path):
        # the installed interface: python -m privexp.cli, twice, byte-identical
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        cmd = [sys.executable, "-m", "privexp.cli", "experiment",
               *EXPERIMENT_ARGS, "--n", "300", "--trials", "5"]
        ra = subprocess.run([*cmd, "--out", str(out_a)], capture_output=True,
                            env=src_on_path())
        rb = subprocess.run([*cmd, "--workers", "3", "--out", str(out_b)],
                            capture_output=True, env=src_on_path())
        assert ra.returncode == rb.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
