"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

For each workload it runs `run.py --size tiny` three times (untraced with
seed 1, traced with seed 1, untraced with seed 2) and checks that:
  1. every metric BENCHMARK.json names is reported, with its unit;
  2. the traced spans nest: each child lies inside its parent, and every
     self time is >= 0;
  3. the traced pass wrote byte-identical outputs to the untraced passes;
  4. another seed changes the inputs but not the set of metric names.
Exits 0 when every check holds. Takes a few minutes on 2 cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import span_times  # noqa: E402

WORKLOADS = ("labels", "train", "detect")


def run(workload: str, seed: int, trace: int, results: Path) -> tuple[dict, dict, Path]:
    """(printed result line, full result file, spans file) of one tiny run."""
    results.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--results", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    (detail_path,) = [p for p in results.glob("*.json") if not p.name.endswith(".spans.json")]
    spans = detail_path.with_suffix(".spans.json")
    return line, json.loads(detail_path.read_text()), spans


def check_metrics(line: dict, expected: list[dict], what: str) -> list[str]:
    errors = []
    got = line["metrics"]
    for m in expected:
        if m["name"] not in got:
            errors.append(f"{what}: metric {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{what}: {m['name']} has unit {got[m['name']]['unit']}, expected {m['unit']}")
        elif not isinstance(got[m["name"]]["value"], (int, float)):
            errors.append(f"{what}: {m['name']} has no numeric value")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{what}: unexpected metrics {sorted(extra)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        errors.append(f"{what}: output checks failed: {line}")
    return errors


def check_spans(spans_path: Path, what: str) -> list[str]:
    payload = json.loads(spans_path.read_text())
    spans = payload["spans"]
    errors = []
    if not spans:
        return [f"{what}: no spans recorded"]
    for i, (name, _, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"{what}: span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (p[2] <= start and end <= p[3]) or parent >= i:
                errors.append(f"{what}: span {i} {name} is not inside its parent {parent} {p[0]}")
    _, self_t, _ = span_times(spans)
    negative = [spans[i][0] for i, s in enumerate(self_t) if s < 0]
    if negative:
        errors.append(f"{what}: negative self time in {negative[:5]}")
    return errors[:10]


def selftest(workload: str, spec: dict, scratch: Path) -> list[str]:
    untraced, detail_a, _ = run(workload, 1, 0, scratch / "a")
    traced, detail_t, spans = run(workload, 1, 1, scratch / "t")
    other, detail_b, _ = run(workload, 2, 0, scratch / "b")
    errors = check_metrics(untraced, spec["end_to_end"], f"{workload} untraced")
    errors += check_metrics(traced, spec["per_layer"], f"{workload} traced")
    errors += check_spans(spans, workload)
    traced_pass = [p for p in detail_t["passes"] if p["label"] == "traced"]
    if len(traced_pass) != 1 or traced_pass[0].get("differs_from_pass0") != []:
        errors.append(f"{workload}: traced outputs differ from untraced: {traced_pass}")
    if detail_a["inputs_sha256"] != detail_t["inputs_sha256"]:
        errors.append(f"{workload}: the same seed gave different inputs")
    if detail_a["inputs_sha256"] == detail_b["inputs_sha256"]:
        errors.append(f"{workload}: seeds 1 and 2 gave identical inputs")
    if set(other["metrics"]) != set(untraced["metrics"]):
        errors.append(f"{workload}: metric names depend on the seed")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = HERE / ".work" / "selftest"
    failures = 0
    for workload in WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            errors = selftest(workload, spec, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for e in errors:
            print(f"FAIL {e}")
        print(f"{'ok  ' if not errors else 'FAIL'} {workload}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
