"""Smoke test of the benchmark: a tiny configuration of every workload, in
both modes, emits every metric BENCHMARK.json names, with its unit.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02
MC_REPORTED = {"success_rate", "trial_failure_share"}
REPORTED = {
    "mc": MC_REPORTED,
    "mc-w2": MC_REPORTED,
    "file-estimate": {"estimate_s_p50", "estimate_s_p90", "estimate_calls",
                      "gen_values_per_s", "success_rate"},
}
ALWAYS_REPORTED = {"error_rate", "reference_ms",
                   *(f"raw.{name}" for name in run.END_TO_END)}


def _run(capsys, *argv) -> tuple:
    assert run.run(list(argv), scale=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_contract_names_match_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == {
        k: unit for k, (unit, _) in run.tracing.LAYER_METRICS.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(capsys, tmp_path, workload, trace):
    out = tmp_path / "result.json"
    spans = tmp_path / "spans.jsonl"
    lines, result = _run(capsys, "--workload", workload, "--seed", "3",
                         "--seconds", "0.2", "--trace", str(trace),
                         "--out", str(out), "--spans", str(spans))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named}
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    assert set(result["metrics"]) | REPORTED[workload] | ALWAYS_REPORTED <= printed

    full = json.loads(out.read_text())
    assert {"python", "numpy", "nproc", "cpu_model", "cache_size",
            "commit"} <= set(full["machine"])
    assert len(full["digest"]) == 16
    if trace:
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) >= {"name", "start_ns", "end_ns", "parent", "trial"}
    else:
        assert not spans.exists()


def test_compare_reads_result_sets(capsys, tmp_path):
    for side in ("base", "new"):
        (tmp_path / side).mkdir()
        for seed in ("1", "2"):
            _run(capsys, "--workload", "mc", "--seed", seed, "--seconds", "0.2",
                 "--out", str(tmp_path / side / f"mc-{seed}.json"))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) in (0, 1)
    table = capsys.readouterr().out
    for name in run.END_TO_END:
        assert name in table


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
