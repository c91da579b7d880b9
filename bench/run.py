"""The privexp benchmark.

    python3 bench/run.py --workload mc --seed 1 --seconds 30 --trace 0 [--out FILE]

Run from the root of a checkout; it imports privexp from ``src/`` and
nothing else. Workloads (see ``workloads.py``):

- ``mc``: serial ``run_experiment`` of all six learners, the researcher's
  Monte Carlo validation loop.
- ``mc-w2``: the same specs with ``workers=2``, the only workload that
  enters the harness's thread pool.
- ``file-estimate``: ``write_sample`` of two 250,000-value files, then the CLI's
  ``estimate`` for all six learners on them, the analyst's path.

Set-up (import privexp, build the specs, auto-size them with ``resolve_n``)
is repeated ``SETUP_REPS`` times over the run and its median reported as
``setup_s``. The workload's cycle repeats until ``--seconds`` are used.
The end-to-end timings are scaled to a fixed machine speed (see
``workloads.SpeedReference``); the report lines also give them raw, as
``raw.<name>``, and the reference's own median time. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
per-layer metrics come from the traced half. Human-readable lines come
first; the last line of standard output is the JSON result. The exit code
is 0 whenever a result was printed, also when a check failed (``correct``
is then false); it is 2 when privexp cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("mc", "mc-w2", "file-estimate")
SETUP_REPS = 11
MC_WORKERS = 2

# name -> (unit, better). Every workload emits every one of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    **{f"ms_per_trial.{learner}": ("ms", "lower") for learner in workloads.LEARNERS},
}


def _purge_privexp() -> None:
    for name in [m for m in sys.modules if m == "privexp" or m.startswith("privexp.")]:
        del sys.modules[name]


def setup(seed: int, scale: float):
    """Import privexp from src/, build the specs and auto-size them.

    Returns (seconds, privexp module, specs, auto-sized n per spec).
    """
    _purge_privexp()
    t0 = time.perf_counter()
    px = importlib.import_module("privexp")
    importlib.import_module("privexp.cli")
    specs = workloads.build_specs(px, seed, scale)
    auto_n = [px.harness.resolve_n(auto) for _, auto in specs]
    return time.perf_counter() - t0, px, specs, auto_n


def machine() -> dict:
    import numpy
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "cpu_model": None,
            "cache_size": None, "commit": _git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "model name" and info["cpu_model"] is None:
                    info["cpu_model"] = value
                elif key == "cache size" and info["cache_size"] is None:
                    info["cache_size"] = value
    except OSError:
        pass
    return info


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def make_workload(name: str, px, specs, seed: int, workdir: str, speed,
                  scale: float):
    if name == "file-estimate":
        return workloads.FileEstimate(px, seed, workdir, speed, scale)
    return workloads.MonteCarlo(px, specs, speed,
                                MC_WORKERS if name == "mc-w2" else None)


def measure(workload, tally, seconds: float, tracer=None, between=None) -> list:
    """Repeat the workload's cycle until ``seconds`` are used (at least once).

    ``between(elapsed)`` runs after each cycle, outside the timed calls.
    """
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        if tracer is None:
            cycles.append(workload.cycle(tally))
        else:
            tracer.call = len(cycles)
            with tracer.span("bench.cycle"):
                cycles.append(workload.cycle(tally))
        if between is not None:
            between(time.perf_counter() - start)
    return cycles


def end_to_end(cycles: list, setup_s: list, prefix: str = "") -> dict:
    """The end-to-end figures from the scaled timings, or with
    ``prefix="raw_"`` from the raw ones."""
    values = {"setup_s": statistics.median(setup_s),
              "trials_per_s": sum(c["trials"] for c in cycles)
              / sum(c[prefix + "busy_s"] for c in cycles)}
    for learner in workloads.LEARNERS:
        values[f"ms_per_trial.{learner}"] = statistics.median(
            c[prefix + "ms_per_trial"][learner] for c in cycles)
    return values


def run(argv=None, scale: float = 1.0) -> int:
    """Entry point; ``scale`` shrinks every input for the smoke test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result, with the machine, here")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the spans here as JSONL")
    args = parser.parse_args(argv)

    if not (SRC / "privexp" / "__init__.py").is_file():
        print(f"error: no privexp package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    speed = workloads.SpeedReference()
    (_, px, specs, auto_n), first_raw, first_scaled = speed.timed(
        setup, args.seed, scale)
    if not Path(px.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: privexp imported from {px.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup_raw, setup_scaled = [first_raw], [first_scaled]

    def set_up_again(elapsed: float) -> None:
        # The machine's speed drifts over seconds, so the set-ups are spread
        # over the run; the workload keeps the modules it was built with.
        if len(setup_raw) < SETUP_REPS and \
                elapsed >= len(setup_raw) * args.seconds / SETUP_REPS:
            _, raw, scaled = speed.timed(setup, args.seed, scale)
            setup_raw.append(raw)
            setup_scaled.append(scaled)

    tally = workloads.Tally()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = make_workload(args.workload, px, specs, args.seed, workdir,
                                 speed, scale)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed(px):
                workloads.build_specs(px, args.seed, scale)
                for _, auto in specs:
                    px.harness.resolve_n(auto)
            setup_spans, tracer.spans = tracer.spans, []
            plain = measure(workload, tally, args.seconds / 2)
            with tracer.installed(px):
                traced = measure(workload, tally, args.seconds / 2, tracer)
            overhead = (statistics.median(c["busy_s"] for c in traced)
                        / statistics.median(c["busy_s"] for c in plain) - 1.0)
            metrics = tracing.layer_metrics(
                tracer.spans, sum(c["trials"] for c in traced), setup_spans,
                overhead)
            units = tracing.LAYER_METRICS
            cycles = plain + traced
            if args.spans:
                tracer.write(args.spans)
        else:
            cycles = measure(workload, tally, args.seconds, between=set_up_again)
            while len(setup_raw) < SETUP_REPS:
                set_up_again(args.seconds)
            metrics = end_to_end(cycles, setup_scaled)
            units = END_TO_END
        workload.audit(tally)
        report = workload.report(cycles)
        for name, value in end_to_end(cycles, setup_raw, "raw_").items():
            report["raw." + name] = (value, *END_TO_END[name])
        report["reference_ms"] = (1e3 * statistics.median(speed.samples),
                                  "ms", "lower")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    report["error_rate"] = (tally.failed / tally.attempted, "share", "lower")
    report["cycles"] = (len(cycles), "count", "higher")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k][0]}
                          for k, v in metrics.items()}}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} digest={workload.digest()}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name][0]}")
    for name, (value, unit, _) in report.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for name, count in sorted(tally.failures.items()):
        print(f"check failed: {name} x{count}")
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace,
                    digest=workload.digest(), machine=machine(),
                    auto_n=auto_n, checks_failed=dict(tally.failures),
                    better={k: units[k][1] for k in metrics},
                    report={k: {"value": v, "unit": u, "better": b}
                            for k, (v, u, b) in report.items()})
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run())
