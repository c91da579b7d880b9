"""Compare two sets of benchmark result files, such as a parent and a change.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py --out`` or directories of
them. For each workload and metric the table gives each side's median and
quartiles, the change of the medians, and the share of pairs the new side
wins (runs are paired by seed where both sides have it, else in order; ties
count for neither). Verdicts:

- ``unresolved``: a side's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every new run beats every base run;
- ``better``: the new side wins at least 9/10 of the pairs and the medians
  differ by more than the base's quartile spread;
- ``worse``: the new median is worse than the base's by more than the bound
  (for a metric without a bound: it loses 9/10 of the pairs by more than the
  base's spread);
- ``same`` otherwise.

Bounds are the end-to-end bounds of ``BENCHMARK.json``; per-layer and
report-only figures have none. The exit code is 1 when any metric with a
bound is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, trace) -> metric -> {"unit", "better", "runs": {seed: value}}."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: dict = {}
    for f in files:
        result = json.loads(f.read_text())
        if "workload" not in result:
            continue
        group = out.setdefault((result["workload"], result["trace"]), {})
        entries = {k: dict(v, better=result["better"][k])
                   for k, v in result["metrics"].items()}
        entries.update(result.get("report", {}))
        for name, entry in entries.items():
            metric = group.setdefault(name, {"unit": entry["unit"],
                                             "better": entry["better"],
                                             "runs": {}})
            metric["runs"][result["seed"]] = entry["value"]
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict, new: dict, better: str, bound) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    common = sorted(set(base) & set(new))
    pairs = ([(base[s], new[s]) for s in common] if len(common) >= min(len(b), len(n))
             else list(zip(b, n)))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else 0.0
    spread = max(_share(bq3 - bq1, bmed), _share(nq3 - nq1, nmed))
    moved = abs(nmed - bmed) > bq3 - bq1
    worse_by = _share(sign * (bmed - nmed), bmed)
    all_better = min(n) > max(b) if sign > 0 else max(n) < min(b)
    if bound is not None and spread > bound and not all_better:
        label = "unresolved"
    elif share >= 0.9 and moved and sign * (nmed - bmed) > 0:
        label = "better"
    elif (worse_by > bound) if bound is not None else (
            pairs and losses / len(pairs) >= 0.9 and moved):
        label = "worse"
    else:
        label = "same"
    return {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3),
            "change": _share(nmed - bmed, bmed), "win_share": share,
            "pairs": len(pairs), "spread": spread, "verdict": label}


def _share(a: float, b: float) -> float:
    return a / b if b else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in
              json.loads(Path(args.benchmark).read_text())["end_to_end"]}
    base, new = load(args.base), load(args.new)
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n## {workload} (trace={trace})")
        print(f"{'metric':42s} {'unit':9s} {'base q1/med/q3':>30s} "
              f"{'new q1/med/q3':>30s} {'change':>8s} {'wins':>6s} verdict")
        for name in sorted(set(base[key]) & set(new[key])):
            entry = base[key][name]
            bound = bounds.get(name) if trace == 0 else None
            v = verdict(entry["runs"], new[key][name]["runs"], entry["better"], bound)
            regressed |= bound is not None and v["verdict"] == "worse"
            fmt = "/".join(f"{x:.4g}" for x in v["base"]), "/".join(
                f"{x:.4g}" for x in v["new"])
            print(f"{name:42s} {entry['unit']:9s} {fmt[0]:>30s} {fmt[1]:>30s} "
                  f"{v['change']:+8.1%} {v['win_share']:6.0%} {v['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
