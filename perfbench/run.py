"""voicedet benchmark runner.

    python3 perfbench/run.py --workload labels|train|detect|all --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--results DIR]

Run from the repository root. Each run:
  1. sets up its inputs SETUP_REPEATS times, each in a fresh interpreter
     (`workloads.py setup`), and reports the median wall time as setup_s;
  2. in this process, imports voicedet from ./src and calls
     `voicedet.cli.main(argv)` for whole passes over the inputs until
     --seconds have elapsed (at least MIN_PASSES passes, the first a
     warm-up that the metrics leave out), timing each command and, between
     commands, a fixed pure-Python reference loop; each command's time is
     taken relative to the loop's time around it (see at_reference_speed);
  3. with --trace 1, runs one more pass with every public function and
     method of the traced modules wrapped (see tracer.py), then one
     untraced pass to time the tracing overhead against;
  4. checks every pass's outputs (outside the timed phase) and prints one
     JSON line: correct, attempted, failed and the end-to-end metrics
     (--trace 0) or the per-layer metrics (--trace 1).
The full result (environment, per-pass numbers, every metric, check notes)
is written to --results, by default perfbench/.work/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("labels", "train", "detect")
SETUP_REPEATS = 3
REFERENCE_LOOP_N = 60_000
REFERENCE_LOOP_S = 0.005  # about the loop's fastest time on the 2-vCPU Xeon VM the benchmark was tuned on
MIN_PASSES = 4  # pass 0 pays cold-heap page faults and is left out of the metrics
SETUP_TIMEOUT_S = 120
NONDETERMINISTIC_OUTPUTS = ("timing.log",)  # wall times, written apart from the compared outputs


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="voicedet benchmark: one workload per run")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the inputs for the self-test")
    p.add_argument("--results", default=str(WORK / "results"), help="directory for full result files")
    return p.parse_args(argv)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _proc_field(path: str, key: str):
    with contextlib.suppress(OSError):
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    import voicedet._alloc as alloc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        commit = res.stdout.strip() if res.returncode == 0 else None
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mb": int(mem_kb.split()[0]) / 1024 if mem_kb else None,
        "git_commit": commit,
        "seed": seed,
        "alloc_tuning_active": bool(alloc._done) and not os.environ.get("VOICEDET_NO_ALLOC_TUNING"),
    }


def _tree_hash(path: Path) -> str:
    """Hash of the input tree; the manifest names files by absolute path, which
    includes the per-run work directory, so that prefix is masked."""
    h = hashlib.sha256()
    prefix = str(path).encode()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes().replace(prefix, b"<inputs>"))
    return h.hexdigest()


def same_outputs(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two pass output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(p) for p in files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        if rel.name.endswith(NONDETERMINISTIC_OUTPUTS):
            continue
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            diff.append(str(rel))
    return diff


def run_setup(workload: str, seed: int, size: str, inputs: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "setup", "--workload", workload,
             "--seed", str(seed), "--inputs", str(inputs), "--size", size],
            check=True, env=env, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return times


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_pass(cli, argvs, label: str, out: Path) -> dict:
    """Run one pass's commands, timing each command on its own and the
    reference loop before the first command and after every command."""
    codes, walls, cpus, refs = [], [], [], [reference_loop()]
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the result line
        for argv in argvs:
            t0, c0 = time.perf_counter(), _cpu_seconds()
            codes.append(cli.main(argv))
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu_seconds() - c0)
            refs.append(reference_loop())
    return {"label": label, "wall_s": sum(walls), "cpu_s": sum(cpus), "command_wall_s": walls,
            "command_cpu_s": cpus, "reference_loop_s": refs, "exit_codes": codes, "out": str(out)}


def at_reference_speed(passes: list[dict], key: str) -> float:
    """Time of one pass at the machine's reference speed: each command's time
    (`key`) over the mean of the reference loop's times right before and
    after it, the median of that ratio over the passes, summed over the
    commands and scaled by REFERENCE_LOOP_S."""
    ratios = [[t / ((r0 + r1) / 2) for t, r0, r1 in zip(p[key], p["reference_loop_s"], p["reference_loop_s"][1:])]
              for p in passes]
    return REFERENCE_LOOP_S * sum(statistics.median(cmd) for cmd in zip(*ratios))


def run_workload(args) -> dict:
    if not (SRC / "voicedet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no voicedet sources at {SRC}; run from a repository checkout")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = WORK / f"{tag}-{os.getpid()}"
    try:
        return _run_in(work, tag, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work: Path, tag: str, args) -> dict:
    inputs = work / "inputs"
    setup_times = run_setup(args.workload, args.seed, args.size, inputs)

    sys.path.insert(0, str(SRC))
    import voicedet
    import voicedet.cli as cli

    if Path(voicedet.__file__).resolve().parent != SRC / "voicedet":
        raise SystemExit(f"perfbench: imported voicedet from {voicedet.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads

    meta = workloads.read_meta(inputs)
    audio_s = meta["audio_s"]
    commands = workloads.COMMANDS[args.workload]

    # timed phase: whole passes until --seconds have elapsed
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(cli, commands(inputs, out), "untraced" if passes else "warm-up", out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.run_id = len(passes)  # spans carry the index of the pass they belong to
        out = work / "traced"
        tracer.install()
        try:
            passes.append(run_pass(cli, commands(inputs, out), "traced", out))
        finally:
            tracer.restore()
        # the machine's speed drifts within a run, so the overhead compares the
        # traced pass with the untraced passes right before and right after it
        out = work / "after-traced"
        passes.append(run_pass(cli, commands(inputs, out), "after-traced", out))
        untraced_wall = (passes[-3]["wall_s"] + passes[-1]["wall_s"]) / 2
        layer = tracing.layer_metrics(tracer.spans, tracer.counts, passes[-2]["wall_s"], untraced_wall)

    # output checks, outside the timed phase: pass 0 in full, later passes
    # (the traced one included) must reproduce its bytes
    first = Path(passes[0]["out"])
    try:
        with contextlib.redirect_stdout(sys.stderr):  # the train check runs CLI commands too
            check = workloads.CHECKS[args.workload](inputs, first)
    except Exception as err:  # unreadable outputs fail the pass instead of ending the run
        check = workloads.Check(meta["items"], meta["items"], math.nan, [f"check raised {err!r}"])
    attempted = failed = 0
    notes = list(check.notes)
    for p in passes:
        attempted += check.items
        if any(code != 0 for code in p["exit_codes"]):
            failed += check.items
            notes.append(f"{p['out']}: exit codes {p['exit_codes']}")
        elif p is passes[0]:
            failed += check.failed
        else:
            diff = same_outputs(first, Path(p["out"]))
            p["differs_from_pass0"] = diff
            if diff:
                failed += check.items
                notes.append(f"{p['out']}: outputs differ from pass0: {diff[:5]}")

    # On a shared host, other tenants can slow a VM down by up to half, in
    # phases that last from a second to minutes and slow CPU time as much as
    # wall time, so every command's time is taken relative to the reference
    # loop timed around it (at_reference_speed); comparisons take medians
    # over runs (compare.py). The wall-clock figures go to the result file.
    timed = [p for p in passes if p["label"] == "untraced"]
    wall = at_reference_speed(timed, "command_wall_s")
    cpu = at_reference_speed(timed, "command_cpu_s")
    measured = {"audio_s_per_wall_s": audio_s / statistics.median(p["wall_s"] for p in timed),
                "cpu_s_per_audio_s": statistics.median(p["cpu_s"] for p in timed) / audio_s,
                "reference_loop_s": statistics.median(r for p in timed for r in p["reference_loop_s"])}
    end_to_end = {
        "audio_s_per_s": (audio_s / wall, "1/s"),
        "cpu_s_per_audio_s": (cpu / audio_s, "s/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "vde_pct": (check.vde_pct, "%"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    if args.trace:
        units = dict(tracing.PER_LAYER)
        reported = {k: {"value": layer[k], "unit": units[k]} for k, _ in tracing.PER_LAYER}
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    for v in reported.values():
        if not math.isfinite(v["value"]):  # a failed check leaves no measurement
            v["value"] = None
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }

    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    detail = {
        "workload": args.workload, "size": args.size, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "inputs_sha256": _tree_hash(inputs), "audio_s_per_pass": audio_s,
        "setup_s_each": setup_times, "passes": passes, "failed_share": failed / attempted,
        "notes": notes, "measured_median_pass": measured, "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": layer, "result": result,
    }
    stem = f"{tag}-{stamp}-{os.getpid()}"
    (results_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tracer.dump(results_dir / f"{stem}.spans.json")

    print(f"env: {json.dumps(detail['environment'], sort_keys=True)}")
    print(f"result file: {results_dir / stem}.json")
    print(f"wall clock, median pass: {json.dumps(measured, sort_keys=True)}")
    for note in notes:
        print(f"check: {note}")
    print(f"failed_share: {failed}/{attempted} = {failed / attempted:.4f}")
    for k, v in (reported if args.trace else detail["end_to_end"]).items():
        print(f"{args.workload:>7} {k:<42} {v['value']:.6g} {v['unit']}")
    return result


def main(argv=None) -> int:
    # SIGTERM raises KeyboardInterrupt, which cli.main does not swallow, so a
    # terminated run still removes its work directory and stops its set-up child
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    args = parse_args(argv)
    if args.workload != "all":
        result = run_workload(args)
        print(json.dumps(result))
        return 0
    # every workload in its own fresh process
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--results", args.results]
        ok &= subprocess.run(cmd).returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
