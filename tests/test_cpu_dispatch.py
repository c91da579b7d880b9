"""Bits that do not depend on numpy's CPU dispatch.

numpy picks some float64 kernels (log1p, exp, log) by the CPU's features at
run time. These checks rerun tests in a child process whose
NPY_DISABLE_CPU_FEATURES lists every feature numpy dispatches on, so the
child runs the kernels of the baseline numpy was built for; numpy reads the
variable at import, for that process only. x86-64 only, where numpy
dispatches on some feature.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import src_on_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_UMATH = getattr(np, "_core", None) or np.core
DISPATCH = list(getattr(_UMATH._multiarray_umath, "__cpu_dispatch__", []))

pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not DISPATCH,
    reason="numpy dispatches on no x86-64 feature here")

# Every golden-file test: the bytes of the CLI's estimate, experiment and
# sweep output.
GOLDEN = ["tests/test_cli.py::TestEstimate::test_golden_fixed_clip",
          "tests/test_cli.py::TestExperimentAndSweep::test_golden_experiment",
          "tests/test_cli.py::TestExperimentAndSweep::test_golden_sweep"]
PINNED = "tests/test_harness.py::TestSampleFiles::test_written_bytes_are_pinned"


def at_baseline(*argv) -> subprocess.CompletedProcess:
    """python ARGV in a child process with every dispatched feature off."""
    env = {**src_on_path(), "NPY_DISABLE_CPU_FEATURES": " ".join(DISPATCH)}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def run_at_baseline(*tests) -> subprocess.CompletedProcess:
    return at_baseline("-m", "pytest", "-q", "-p", "no:cacheprovider", *tests)


def test_child_runs_without_the_dispatched_features():
    # else the checks below would rerun the parent's kernels
    probe = at_baseline("-c", "import numpy as np; "
                        "core = getattr(np, '_core', None) or np.core; "
                        "print(*(name for name, on in "
                        "core._multiarray_umath.__cpu_features__.items() if on))")
    assert probe.returncode == 0, probe.stderr
    assert not set(DISPATCH) & set(probe.stdout.split())


def test_golden_files_hold_at_baseline_dispatch():
    run = run_at_baseline(*GOLDEN)
    assert run.returncode == 0, run.stdout + run.stderr


def test_whole_range_properties_hold_at_baseline_dispatch():
    # the Pareto pdf and cdf run numpy's dispatched log, exp and expm1, so
    # their 50-digit reference bounds, not just their bits, are rechecked
    run = run_at_baseline("tests/test_distributions.py::TestWholeDoubleRange")
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.xfail(strict=True, reason="the pinned Pareto sample was hashed on "
                   "AVX-512 log1p and exp kernels; at baseline dispatch "
                   "write_sample(ParetoModel(1.3, 2.5), 2000, seed=7) hashes "
                   "to 49ab87e5..., not 570c6c73...")
def test_pinned_sample_bytes_hold_at_baseline_dispatch():
    run = run_at_baseline(PINNED)
    assert run.returncode == 0, run.stdout + run.stderr
