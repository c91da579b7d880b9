"""Command line front end.

Subcommands: gen (write a synthetic sample file), estimate (run one learner
on a data file, JSON result), experiment (Monte Carlo run, JSON summary),
sweep (success rate vs sample size, CSV), calc (sample-size bounds),
lowerbound (packing lower bound), packing (print the packing family).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import SampleBound, build_packing, required_n
from .dataset import RateBounds
from .distributions import ExpModel, ParetoModel
from .errors import IncompleteInputs, InputError, PrivexpError, check_in
from .harness import (_LEARNERS, ExperimentSpec, Learner, estimate_from_file,
                      run_experiment, run_sweep, sweep_csv, write_sample)
from .pareto import DEFAULT_TAIL_QUANTILE

__all__ = ["main", "build_parser"]


def _add_bounds_args(parser) -> None:
    parser.add_argument("--lambda-min", type=float, default=None,
                        help="lower end of the rate (or shape) range")
    parser.add_argument("--lambda-max", type=float, default=None,
                        help="upper end of the rate (or shape) range")


def _add_accuracy_args(parser) -> None:
    parser.add_argument("--alpha", type=float, default=None,
                        help="relative accuracy target")
    parser.add_argument("--beta", type=float, default=None,
                        help="failure probability target")


def _add_budget_args(parser) -> None:
    parser.add_argument("--epsilon", type=float, default=None,
                        help="privacy budget epsilon")
    parser.add_argument("--delta", type=float, default=0.0,
                        help="privacy budget delta (default 0, pure DP)")


def _bounds_from(args) -> RateBounds | None:
    if args.lambda_min is None and args.lambda_max is None:
        return None
    if args.lambda_min is None or args.lambda_max is None:
        raise IncompleteInputs("need both --lambda-min and --lambda-max")
    return RateBounds(args.lambda_min, args.lambda_max)


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.dist == "exp":
        if args.rate is None:
            raise IncompleteInputs("gen --dist exp needs --rate")
        model = ExpModel(args.rate)
    else:
        if args.xm is None or args.shape is None:
            raise IncompleteInputs("gen --dist pareto needs --xm and --shape")
        model = ParetoModel(args.xm, args.shape)
    write_sample(args.out, model, args.n, args.seed)
    return 0


def _cmd_estimate(args) -> int:
    payload = estimate_from_file(
        args.infile, Learner(args.learner), alpha=args.alpha, beta=args.beta,
        epsilon=args.epsilon, delta=args.delta, bounds=_bounds_from(args),
        seed=args.seed, noiseless=args.noiseless, clip_r=args.clip_r,
        known_scale=args.xm, tau=args.tau)
    _write_out(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _spec_from(args) -> ExperimentSpec:
    return ExperimentSpec(
        learner=Learner(args.learner), alpha=args.alpha, beta=args.beta,
        epsilon=args.epsilon, delta=args.delta, bounds=_bounds_from(args),
        true_lambda=args.true_lambda, true_xm=args.true_xm,
        true_shape=args.true_shape, n=args.n, trials=args.trials,
        base_seed=args.seed, noiseless=args.noiseless,
        safety_factor=args.safety_factor, tau=args.tau)


def _cmd_experiment(args) -> int:
    summary = run_experiment(_spec_from(args), workers=args.workers)
    _write_out(args, summary.to_json() + "\n")
    return 0


def _cmd_sweep(args) -> int:
    try:
        n_values = [int(part) for part in args.n_grid.split(",") if part]
    except ValueError:
        raise InputError(f"--n-grid takes comma separated integers, "
                         f"got {args.n_grid!r}") from None
    if not n_values:
        raise InputError(f"--n-grid names no sample size, got {args.n_grid!r}")
    rows = run_sweep(_spec_from(args), n_values, workers=args.workers)
    _write_out(args, sweep_csv(rows))
    return 0


def _cmd_calc(args) -> int:
    delta = check_in("delta", args.delta, 0.0, 1.0, ends="[)")  # 0: pure DP
    report = required_n(SampleBound(args.bound), alpha=args.alpha,
                        beta=args.beta, epsilon=args.epsilon,
                        delta=delta if delta > 0 else None,
                        lam=args.rate, bounds=_bounds_from(args),
                        clip_r=args.clip_r, tau=args.tau)
    inputs = dict(report.inputs)
    if "bounds" in inputs:
        inputs["bounds"] = [inputs["bounds"].lower, inputs["bounds"].upper]
    payload = {"bound": report.bound_id.value, "n_required": report.n_required,
               "exact_constants": report.exact_constants, "inputs": inputs}
    _write_out(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_lowerbound(args) -> int:
    bounds = _bounds_from(args)
    if bounds is None:
        raise IncompleteInputs("lowerbound needs --lambda-min and --lambda-max")
    report = required_n(SampleBound.PACKING_LOWER_BOUND, alpha=args.alpha,
                        beta=args.beta, epsilon=args.epsilon, bounds=bounds)
    _write_out(args, f"{report.n_required}\n")
    return 0


def _cmd_packing(args) -> int:
    bounds = _bounds_from(args)
    if bounds is None:
        raise IncompleteInputs("packing needs --lambda-min and --lambda-max")
    rates = build_packing(bounds, args.alpha)
    _write_out(args, "".join(f"{rate!r}\n" for rate in rates))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privexp",
        description="Differentially private learners for exponential and "
                    "Pareto distributions, with exact accuracy analysis "
                    "and a Monte Carlo validation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic sample file")
    gen.add_argument("--dist", choices=["exp", "pareto"], default="exp")
    gen.add_argument("--rate", type=float, default=None,
                     help="exponential rate (with --dist exp)")
    gen.add_argument("--xm", type=float, default=None,
                     help="Pareto scale (with --dist pareto)")
    gen.add_argument("--shape", type=float, default=None,
                     help="Pareto shape (with --dist pareto)")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    est = sub.add_parser("estimate", help="run one learner on a data file")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--learner", required=True,
                     choices=[l.value for l in _LEARNERS])
    _add_accuracy_args(est)
    _add_budget_args(est)
    _add_bounds_args(est)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--noiseless", action="store_true")
    est.add_argument("--clip-r", type=float, default=None,
                     help="skip range estimation; clipped-mean estimate at "
                          "this fixed clipping level")
    est.add_argument("--xm", type=float, default=None,
                     help="known scale for pareto-known-scale")
    est.add_argument("--tau", type=float, default=DEFAULT_TAIL_QUANTILE,
                     help="tail mass below the Pareto pivot")
    est.add_argument("--out", default=None)
    est.set_defaults(func=_cmd_estimate)

    def add_experiment_args(p):
        p.add_argument("--learner", required=True,
                       choices=[l.value for l in _LEARNERS])
        _add_accuracy_args(p)
        _add_budget_args(p)
        _add_bounds_args(p)
        p.add_argument("--true-lambda", type=float, default=None)
        p.add_argument("--true-xm", type=float, default=None)
        p.add_argument("--true-shape", type=float, default=None)
        p.add_argument("--n", type=int, default=None,
                       help="per-trial sample size (default: auto-sized)")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--noiseless", action="store_true")
        p.add_argument("--safety-factor", type=float, default=4.0)
        p.add_argument("--tau", type=float, default=DEFAULT_TAIL_QUANTILE)
        p.add_argument("--workers", type=int, default=None,
                       help="default: 2, or 1 where this process may run on one "
                            "CPU only; 1 keeps every trial on the calling thread")
        p.add_argument("--out", default=None)

    exp = sub.add_parser("experiment", help="Monte Carlo validation run")
    add_experiment_args(exp)
    exp.set_defaults(func=_cmd_experiment)

    swp = sub.add_parser("sweep", help="success rate across sample sizes")
    add_experiment_args(swp)
    swp.add_argument("--n-grid", required=True,
                     help="comma separated sample sizes, e.g. 500,1000,2000")
    swp.set_defaults(func=_cmd_sweep)

    calc = sub.add_parser("calc", help="evaluate a sample-size bound")
    calc.add_argument("--bound", required=True,
                      choices=[b.value for b in SampleBound])
    _add_accuracy_args(calc)
    _add_budget_args(calc)
    _add_bounds_args(calc)
    calc.add_argument("--rate", type=float, default=None,
                      help="rate (or Pareto shape) the bound is evaluated at")
    calc.add_argument("--clip-r", type=float, default=None)
    calc.add_argument("--tau", type=float, default=DEFAULT_TAIL_QUANTILE)
    calc.add_argument("--out", default=None)
    calc.set_defaults(func=_cmd_calc)

    low = sub.add_parser("lowerbound", help="packing lower bound on n")
    _add_accuracy_args(low)
    low.add_argument("--epsilon", type=float, required=True)
    _add_bounds_args(low)
    low.add_argument("--out", default=None)
    low.set_defaults(func=_cmd_lowerbound)

    pack = sub.add_parser("packing", help="print the packing family rates")
    pack.add_argument("--alpha", type=float, required=True)
    _add_bounds_args(pack)
    pack.add_argument("--out", default=None)
    pack.set_defaults(func=_cmd_packing)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PrivexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
