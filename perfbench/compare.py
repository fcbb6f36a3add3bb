"""Compare two sets of benchmark results, or summarise one set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --summary DIR

Each directory holds the result files `run.py --results DIR` writes. Runs of
one workload are paired by seed (in run order when a seed repeats). For each
workload and end-to-end metric the comparison prints both medians and
quartiles, the share of pairs the change won (ties count for neither side),
and a verdict:

  improved    at least MIN_PAIRS pairs, the change won >= 90% of them, and
              the medians differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the spread of either side (quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run
  unchanged   otherwise

`--summary` prints, per workload, the median and quartiles of every
end-to-end metric and the per-layer metrics of the first traced run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory) -> list[dict]:
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        out.append(json.loads(path.read_text()))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _by_workload(results, trace: int) -> dict[str, list[dict]]:
    grouped = defaultdict(list)
    for r in results:
        if r["trace"] == trace:
            grouped[r["workload"]].append(r)
    return grouped


def _values(runs, metric) -> list[float]:
    return [r["end_to_end"][metric]["value"] for r in runs if r["end_to_end"][metric]["value"] is not None]


def _pairs(parent_runs, change_runs, metric):
    by_seed = defaultdict(list)
    for r in change_runs:
        by_seed[r["seed"]].append(r["end_to_end"][metric]["value"])
    pairs = []
    for r in parent_runs:
        if by_seed[r["seed"]]:
            pairs.append((r["end_to_end"][metric]["value"], by_seed[r["seed"]].pop(0)))
    return [(p, c) for p, c in pairs if p is not None and c is not None]


def verdict(parent: list[float], change: list[float], pairs, lower_better: bool, bound: float):
    """(verdict, share of pairs won by the change) by the rules in the module docstring."""
    sign = 1.0 if lower_better else -1.0

    def better(a, b) -> bool:
        return sign * (a - b) < 0

    wins = sum(better(c, p) for p, c in pairs)
    share = wins / len(pairs) if pairs else float("nan")
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        return "improved", share
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "worse", share
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def _cell(q, unit: str) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {unit}"


def compare(parent_dir, change_dir, spec: dict) -> list[str]:
    parent = _by_workload(load_results(parent_dir), 0)
    change = _by_workload(load_results(change_dir), 0)
    lines = [f"{'workload':<8} {'metric':<18} {'parent median [q1, q3]':<40}"
             f"{'change median [q1, q3]':<40}{'delta':>8} {'won':>7}  verdict"]
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            lines.append(f"{workload:<8} missing on one side ({len(p_runs)} parent, {len(c_runs)} change runs)")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv, cv = _values(p_runs, name), _values(c_runs, name)
            if not pv or not cv:
                lines.append(f"{workload:<8} {name:<18} no values")
                continue
            pairs = _pairs(p_runs, c_runs, name)
            v, share = verdict(pv, cv, pairs, m["better"] == "lower", m["bound"])
            pq, cq = quartiles(pv), quartiles(cv)
            delta = 100.0 * (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            wins = round(share * len(pairs)) if pairs else 0
            lines.append(f"{workload:<8} {name:<18} {_cell(pq, m['unit']):<40}{_cell(cq, m['unit']):<40}"
                         f"{delta:>+7.2f}% {wins:>3}/{len(pairs):<3}  {v}")
    return lines


def summary(directory, spec: dict) -> dict:
    results = load_results(directory)
    out = {}
    for workload, runs in sorted(_by_workload(results, 0).items()):
        rows = {}
        for m in spec["end_to_end"]:
            vals = _values(runs, m["name"])
            q1, med, q3 = quartiles(vals)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "unit": m["unit"],
                               "spread": (q3 - q1) / med if med else None}
        out[workload] = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
                         "failed_share": max(r["failed_share"] for r in runs),
                         "environment": runs[0]["environment"], "end_to_end": rows}
    for workload, runs in sorted(_by_workload(results, 1).items()):
        layer = runs[0]["per_layer"]
        entry = out.setdefault(workload, {})
        entry["traced_seed"] = runs[0]["seed"]
        entry["layer_share_pct"] = {k[len("share."):]: v for k, v in layer.items() if k.startswith("share.")}
        entry["per_layer"] = layer
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare or summarise benchmark result sets")
    p.add_argument("dirs", nargs="+", help="PARENT_DIR CHANGE_DIR, or one DIR with --summary")
    p.add_argument("--summary", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.summary:
        if len(args.dirs) != 1:
            p.error("--summary takes one directory")
        print(json.dumps(summary(args.dirs[0], spec), indent=1))
        return 0
    if len(args.dirs) != 2:
        p.error("give PARENT_DIR and CHANGE_DIR")
    print("\n".join(compare(args.dirs[0], args.dirs[1], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
