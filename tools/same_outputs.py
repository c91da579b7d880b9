"""Does the CLI behave as it did at a git revision? Standard library only.

Extracts src/ at the git revision REV with git archive, then runs each argv
of a built-in battery as `python -m privexp.cli ARGV` in a subprocess, once
on REV's src and once on the working tree's. Each tree runs the battery in
order in a fresh working directory of its own, so the battery's first
commands write the data files the later ones read with that tree's own gen.
An argv differs when its exit code, stdout, stderr or a file it writes
differs between the two.

    python3 tools/same_outputs.py REV [--repo DIR]

DIR is the repository, by default the one holding this script. Prints each
argv that differs, with what differs, then a count; the exit status is 1
when an argv differs, else 0. Every path in the battery is relative, so no
message names the directory a tree runs in.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

RUN = ["--alpha", "0.2", "--beta", "0.1", "--epsilon", "1"]
RATES = [*RUN, "--lambda-min", "0.01", "--lambda-max", "100"]
SHAPES = [*RUN, "--lambda-min", "0.5", "--lambda-max", "8"]
FINDER = ["--learner", "bounds-finder", "--epsilon", "1", "--delta", "1e-6"]
KNOWN = ["--learner", "pareto-known-scale", *SHAPES, "--xm", "1.3"]
EXP = ["--in", "exp.txt"]
PAR = ["--in", "pareto.txt"]
TRUE_RATE = ["--true-lambda", "2"]
TRUE_PARETO = ["--true-xm", "1.3", "--true-shape", "2.5"]


def _estimates() -> list:
    runs = [[*EXP, "--learner", learner, *RATES]
            for learner in ("mle", "quantile", "best-of-both")]
    runs += [[*EXP, *FINDER], [*PAR, "--learner", "pareto", *SHAPES], [*PAR, *KNOWN]]
    return [["estimate", *run, *extra] for run in runs
            for extra in ([], ["--noiseless"], ["--seed", "3"])]


def _experiments() -> list:
    specs = [["--learner", "mle", *RATES, *TRUE_RATE],
             ["--learner", "best-of-both", *RATES, *TRUE_RATE],
             [*FINDER, *TRUE_RATE],
             ["--learner", "pareto", *SHAPES, *TRUE_PARETO],
             [*KNOWN[:-2], *TRUE_PARETO]]
    return [["experiment", *spec, "--n", n, "--trials", "3", "--workers", workers]
            for spec in specs for n in ("65536", "70000") for workers in ("1", "2")]


BATTERY = [
    ["--help"],
    ["gen", "--help"],
    ["gen", "--dist", "exp", "--rate", "2", "--n", "20000", "--seed", "4",
     "--out", "exp.txt"],
    ["gen", "--dist", "pareto", "--xm", "1.3", "--shape", "2.5", "--n", "60000",
     "--seed", "7", "--out", "pareto.txt"],
    ["gen", "--rate", "1", "--n", "4", "--out", "four.txt"],
    *_estimates(),
    ["estimate", "--in", "four.txt", *FINDER],
    ["estimate", *EXP, "--learner", "mle", "--epsilon", "1", "--clip-r", "2"],
    ["estimate", *EXP, "--learner", "mle", "--epsilon", "1", "--clip-r", "2",
     "--noiseless", "--out", "clip.json"],
    ["estimate", *EXP, "--learner", "bounds-finder", "--epsilon", "1", "--clip-r", "2"],
    ["estimate", *PAR, "--learner", "pareto", "--epsilon", "1", "--clip-r", "2"],
    *_experiments(),
    ["experiment", "--learner", "quantile", *RATES, *TRUE_RATE, "--trials", "20"],
    ["experiment", "--learner", "quantile", *RATES, *TRUE_RATE, "--trials", "5",
     "--seed", "9", "--safety-factor", "2", "--noiseless", "--out", "summary.json"],
    ["sweep", "--learner", "quantile", *RATES, *TRUE_RATE, "--trials", "20",
     "--n-grid", "100,600"],
    ["sweep", "--learner", "mle", *RATES, *TRUE_RATE, "--trials", "5",
     "--n-grid", "2000,4000", "--out", "sweep.csv"],
    ["calc", "--bound", "quantile-search", *RATES],
    ["calc", "--bound", "best-of-both", *RATES, "--rate", "5"],
    ["calc", "--bound", "pareto-learning", *SHAPES, "--rate", "2", "--tau", "0.2"],
    ["calc", "--bound", "clipped-mle", *RUN, "--rate", "1", "--clip-r", "3"],
    ["calc", "--bound", "bounds-finder", "--beta", "0.1", "--epsilon", "1",
     "--delta", "1e-6", "--out", "calc.json"],
    ["lowerbound", *RATES],
    ["packing", "--alpha", "0.2", "--lambda-min", "1", "--lambda-max", "100"],
    # refusals
    ["estimate", "--in", "missing.txt", "--learner", "mle", *RATES],
    ["estimate", "--in", "missing.txt", "--learner", "mle", *RATES, "--epsilon", "-1"],
    ["estimate", *EXP, "--learner", "mle", *RATES[2:]],
    ["estimate", *EXP, "--learner", "quantile", *RUN],
    ["estimate", *EXP, "--learner", "mle", *RUN, "--lambda-min", "0.1"],
    ["estimate", *EXP, "--learner", "bounds-finder", "--epsilon", "1"],
    ["estimate", *PAR, "--learner", "pareto-known-scale", *SHAPES],
    ["estimate", "--in", "missing.txt", *KNOWN[:-1], "-1"],
    ["estimate", *PAR, "--learner", "pareto", *SHAPES, "--tau", "0.5"],
    ["estimate", *EXP, "--learner", "mle", *RATES, "--out", "."],
    ["estimate", "--learner", "mle", *RATES],
    ["experiment", "--learner", "mle", *RATES, *TRUE_RATE, "--n", "0"],
    ["experiment", "--learner", "mle", *RATES, *TRUE_RATE, "--trials", "0"],
    ["experiment", "--learner", "mle", *RATES, *TRUE_RATE, "--seed", "-1"],
    ["experiment", "--learner", "mle", *RATES, "--n", "100"],
    ["experiment", "--learner", "pareto", *SHAPES, *TRUE_PARETO, "--n", "2000",
     "--tau", "0.5"],
    ["experiment", "--learner", "pareto", *SHAPES, *TRUE_PARETO, "--tau", "0.5"],
    *[["experiment", "--learner", learner, "--alpha", "1e-14", *RUN[2:], *bounds,
       *truth, "--n", "100", "--trials", "2"]
      for learner, bounds, truth in (("quantile", RATES[6:], TRUE_RATE),
                                     ("best-of-both", RATES[6:], TRUE_RATE),
                                     ("pareto", SHAPES[6:], TRUE_PARETO))],
    ["experiment", "--learner", "pareto", *RUN, "--lambda-min", "1e-3",
     "--lambda-max", "1e300", *TRUE_PARETO, "--n", "100", "--trials", "2"],
    ["experiment", "--learner", "mle", *RATES, "--true-lambda", "-1"],
    ["experiment", "--learner", "pareto", *SHAPES, "--true-xm", "1.3",
     "--true-shape", "-2"],
    ["experiment", "--learner", "mle", *RATES, *TRUE_RATE, "--n", "abc"],
    ["experiment", "--learner", "mle-typo"],
    ["sweep", "--learner", "mle", *RATES, *TRUE_RATE, "--n-grid", "100,abc"],
    ["sweep", "--learner", "mle", *RATES, *TRUE_RATE, "--n-grid", "300,0"],
    ["calc", "--bound", "clipped-mle", *RUN],
    ["calc", "--bound", "bounds-finder", "--beta", "0.1", "--epsilon", "1",
     "--delta", "2"],
    ["lowerbound", *RUN],
    ["packing", "--lambda-min", "1", "--lambda-max", "100"],
    ["packing", "--alpha", "0.2"],
    ["gen", "--dist", "exp", "--n", "5", "--out", "unwritten.txt"],
    ["gen", "--rate", "2", "--n", "5"],
    # laws whose largest draw passes the doubles
    ["gen", "--rate", "5e-324", "--n", "5", "--out", "unwritten.txt"],
    ["experiment", "--learner", "mle", *RATES, "--true-lambda", "1e-310", "--n", "100",
     "--trials", "2"],
    ["gen", "--dist", "pareto", "--xm", "1e300", "--shape", "0.01", "--n", "5",
     "--out", "unwritten.txt"],
]


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def run_battery(src: Path, workdir: Path, battery) -> list:
    """(exit code, stdout, stderr, files written) of each argv, run in order
    in workdir on the package in src."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}
    results = []
    for argv in battery:
        before = _files(workdir)
        proc = subprocess.run([sys.executable, "-m", "privexp.cli", *argv],
                              cwd=workdir, env=env, capture_output=True)
        written = {name: data for name, data in _files(workdir).items()
                   if before.get(name) != data}
        results.append((proc.returncode, proc.stdout, proc.stderr, written))
    return results


def differences(repo: Path, rev: str, battery) -> list:
    """(argv, names of what differs) for each argv of battery whose results
    differ between src at rev and the working tree's src."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=repo,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        results = []
        for src, name in ((tmp / "rev" / "src", "at-rev"), (repo / "src", "now")):
            (tmp / name).mkdir()
            results.append(run_battery(src, tmp / name, battery))
    fields = ("exit code", "stdout", "stderr", "written files")
    found = []
    for argv, was, now in zip(battery, *results):
        differ = [field for field, a, b in zip(fields, was, now) if a != b]
        if differ:
            found.append((argv, differ))
    return found


def main(argv: list, battery=BATTERY) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("rev")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    try:
        found = differences(args.repo, args.rev, battery)
    except subprocess.CalledProcessError as exc:
        sys.exit(f"same_outputs: {exc.stderr.decode().strip()}")
    for command, differ in found:
        print(f"differs ({', '.join(differ)}): privexp {' '.join(command)}")
    print(f"{len(found)} of {len(battery)} commands differ from {args.rev}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
