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
from .harness import (_LEARNERS, ExperimentSpec, _write_text, estimate_from_file,
                      run_experiment, run_sweep, sweep_csv, write_sample)
from .learners import Learner
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


def _add_run_args(parser) -> None:
    """The flags a learner run and calc read alike."""
    _add_accuracy_args(parser)
    parser.add_argument("--epsilon", type=float, default=None,
                        help="privacy budget epsilon")
    parser.add_argument("--delta", type=float, default=0.0,
                        help="privacy budget delta (default 0, pure DP)")
    _add_bounds_args(parser)
    parser.add_argument("--tau", type=float, default=DEFAULT_TAIL_QUANTILE,
                        help="tail mass below the Pareto pivot")


def _add_learner_args(parser) -> None:
    parser.add_argument("--learner", required=True,
                        choices=[l.value for l in _LEARNERS])
    _add_run_args(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noiseless", action="store_true")


def _bounds_from(args, needed_by: str | None = None) -> RateBounds | None:
    """The --lambda-min/--lambda-max bounds, or None where neither is given;
    IncompleteInputs then if needed_by names a subcommand that needs them."""
    if args.lambda_min is None and args.lambda_max is None:
        if needed_by:
            raise IncompleteInputs(f"{needed_by} needs --lambda-min and --lambda-max")
        return None
    if args.lambda_min is None or args.lambda_max is None:
        raise IncompleteInputs("need both --lambda-min and --lambda-max")
    return RateBounds(args.lambda_min, args.lambda_max)


def _write_out(args, text: str) -> None:
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


# gen's laws by --dist: the model and its flags, in its arguments' order.
_LAWS = {"exp": (ExpModel, ("rate",)), "pareto": (ParetoModel, ("xm", "shape"))}


def _cmd_gen(args) -> None:
    law, flags = _LAWS[args.dist]
    if None in (values := [getattr(args, flag) for flag in flags]):
        raise IncompleteInputs(f"gen --dist {args.dist} needs --{' and --'.join(flags)}")
    write_sample(args.out, law(*values), args.n, args.seed)


def _cmd_estimate(args) -> str:
    payload = estimate_from_file(
        args.infile, Learner(args.learner), alpha=args.alpha, beta=args.beta,
        epsilon=args.epsilon, delta=args.delta, bounds=_bounds_from(args),
        seed=args.seed, noiseless=args.noiseless, clip_r=args.clip_r,
        known_scale=args.xm, tau=args.tau)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _spec_from(args) -> ExperimentSpec:
    return ExperimentSpec(
        learner=Learner(args.learner), alpha=args.alpha, beta=args.beta,
        epsilon=args.epsilon, delta=args.delta, bounds=_bounds_from(args),
        true_lambda=args.true_lambda, true_xm=args.true_xm,
        true_shape=args.true_shape, n=args.n, trials=args.trials,
        base_seed=args.seed, noiseless=args.noiseless,
        safety_factor=args.safety_factor, tau=args.tau)


def _cmd_experiment(args) -> str:
    return run_experiment(_spec_from(args), workers=args.workers).to_json() + "\n"


def _cmd_sweep(args) -> str:
    try:
        n_values = [int(part) for part in args.n_grid.split(",") if part]
    except ValueError:
        raise InputError(f"--n-grid takes comma separated integers, "
                         f"got {args.n_grid!r}") from None
    if not n_values:
        raise InputError(f"--n-grid names no sample size, got {args.n_grid!r}")
    return sweep_csv(run_sweep(_spec_from(args), n_values, workers=args.workers))


def _cmd_calc(args) -> str:
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
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_lowerbound(args) -> str:
    report = required_n(SampleBound.PACKING_LOWER_BOUND, alpha=args.alpha,
                        beta=args.beta, epsilon=args.epsilon,
                        bounds=_bounds_from(args, "lowerbound"))
    return f"{report.n_required}\n"


def _cmd_packing(args) -> str:
    rates = build_packing(_bounds_from(args, "packing"), args.alpha)
    return "".join(f"{rate!r}\n" for rate in rates)


class _Parser(argparse.ArgumentParser):
    """A refusal of argparse's own is one error line and exit 2, as a
    PrivexpError's is; its subparsers are built of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="privexp",
        description="Differentially private learners for exponential and "
                    "Pareto distributions, with exact accuracy analysis "
                    "and a Monte Carlo validation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic sample file")
    gen.add_argument("--dist", choices=list(_LAWS), default="exp")
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
    _add_learner_args(est)
    est.add_argument("--clip-r", type=float, default=None,
                     help="skip range estimation; clipped-mean estimate at "
                          "this fixed clipping level")
    est.add_argument("--xm", type=float, default=None,
                     help="known scale for pareto-known-scale")
    est.set_defaults(func=_cmd_estimate)

    def add_experiment_args(p):
        _add_learner_args(p)
        p.add_argument("--true-lambda", type=float, default=None)
        p.add_argument("--true-xm", type=float, default=None)
        p.add_argument("--true-shape", type=float, default=None)
        p.add_argument("--n", type=int, default=None,
                       help="per-trial sample size (default: auto-sized)")
        p.add_argument("--trials", type=int, default=ExperimentSpec.trials)
        p.add_argument("--safety-factor", type=float,
                       default=ExperimentSpec.safety_factor)
        p.add_argument("--workers", type=int, default=None,
                       help="default: 2, or 1 where this process may run on one "
                            "CPU only; 1 keeps every trial on the calling thread")

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
    _add_run_args(calc)
    calc.add_argument("--rate", type=float, default=None,
                      help="rate (or Pareto shape) the bound is evaluated at")
    calc.add_argument("--clip-r", type=float, default=None,
                      help="clipping level the clipped-mle bound is evaluated at")
    calc.set_defaults(func=_cmd_calc)

    low = sub.add_parser("lowerbound", help="packing lower bound on n")
    _add_accuracy_args(low)
    low.add_argument("--epsilon", type=float, default=None)
    _add_bounds_args(low)
    low.set_defaults(func=_cmd_lowerbound)

    pack = sub.add_parser("packing", help="print the packing family rates")
    pack.add_argument("--alpha", type=float, required=True)
    _add_bounds_args(pack)
    pack.set_defaults(func=_cmd_packing)

    for p in (est, exp, swp, calc, low, pack):  # every command that returns text
        p.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and write the text it returns to --out, else to
    stdout (gen writes its own file and returns None); 2 on a PrivexpError,
    a MemoryError (a size this host cannot allocate) or a refusal of the
    parser's, 0 after --help."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        if (text := args.func(args)) is not None:
            _write_out(args, text)
    except (PrivexpError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
