"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload (workloads.py) runs in a
closed loop from one process: every sweep is a fresh interpreter (sweep.py)
that makes the workload's run_experiment calls one after another, and the
next sweep starts when the previous one has exited. Sweeps repeat until
--seconds have passed, and until every distinct sweep of the workload has
run and the first has run twice. The outputs are then checked
(checks.py), a table gives every metric with its unit, the environment and
the failed share, and the last line of output is one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics below. --trace 1 alternates
untraced and traced sweeps and reports the per-layer metrics of tracing.py.
The process exits with code 2, printing no result, if the package source
is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("err_interior", "abs_err"),
    ("err_hybrid", "abs_err"),
    ("err_buffer", "abs_err"),
    ("interior_rate", "ratio"),
)

# setup_s is the median of these setup-only processes and of every sweep's
# own setup
SETUP_REPEATS = 3
# a run must end within 180 s; no sweep starts that could run past this
DEADLINE_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="m = 16, 32 on a 64-point grid, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fourierhybrid" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'fourierhybrid'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WHY:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WHY)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    blas_threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               OMP_NUM_THREADS=blas_threads, MKL_NUM_THREADS=blas_threads)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            result = _spawn(args, work / "setup", 0, env, deadline, setup_only=True)
            if result:
                setups.append(result["setup_s"])
        sweeps = []  # (traced, configs, worker result or None)
        min_sweeps = workloads.CYCLE[args.workload] + 1
        loop_started = time.monotonic()
        while True:
            k = len(sweeps)
            traced = bool(args.trace) and k % 2 == 1
            out = work / f"sweep{k}"
            cfgs = workloads.configs(args.workload, args.seed, out, k, args.toy)
            started = time.monotonic()
            sweeps.append((traced, cfgs, _spawn(args, out, k, env, deadline, traced)))
            now = time.monotonic()
            if k + 1 >= min_sweeps and now - loop_started >= args.seconds:
                break
            if now + (now - started) > deadline:
                break
        attempted, failures = checks.check_sweeps(
            args.workload, [c for _, c, _ in sweeps], [r for _, _, r in sweeps]
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    untraced = [r for t, _, r in sweeps if r is not None and not t]
    traced = [r for t, _, r in sweeps if r is not None and t]
    if not untraced or (args.trace and not traced):
        print("perfbench: no sweep completed; see the errors above", file=sys.stderr)
        return 1
    setups += [r["setup_s"] for _, _, r in sweeps if r is not None]
    sweep_times = [r["sweep_s"] for r in untraced]

    absent = sorted({name for r in traced for name in r["absent"]})
    if args.trace:
        metrics, missing = _layer_metrics(traced, sweep_times, tracing.PER_LAYER)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "sweep_s": statistics.median(sweep_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            **_accuracy(sweeps, workloads.config_key),
        }
        missing = []
        units = dict(END_TO_END)

    env_record = dict(untraced[0]["env"], workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, toy=args.toy)
    print(f"perfbench {args.workload}: {workloads.WHY[args.workload]}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    print(f"sweeps: untraced {[round(t, 4) for t in sweep_times]} s, traced "
          f"{[round(r['sweep_s'], 4) for r in traced]} s; setup samples "
          f"{[round(s, 4) for s in setups]} s")
    print(f"{'metric':<36} {'value':<22} unit")
    for name, value in metrics.items():
        note = "  (absent: hook target gone)" if name in missing else ""
        print(f"{name:<36} {value:<22.12g} {units[name]}{note}")
    print(f"{'failed_share':<36} {len(failures) / attempted:<22.12g} share"
          f"  ({len(failures)} of {attempted} run_experiment calls)")
    if args.trace:
        print("absent hooks: " + (", ".join(absent) or "none"))
        covered = 1.0 - metrics["trace.untraced_s"] / statistics.median(
            r["sweep_s"] for r in traced)
        print(f"coverage: {covered:.2%} of the traced sweep_s is in layer self "
              "times plus experiments.io_s")
    for failure in failures:
        print("failure: " + failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _spawn(args, out: Path, sweep, env, deadline, traced=False, setup_only=False):
    """Run sweep.py to completion; its parsed result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--sweep", str(sweep), "--out", str(out),
           "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    if args.toy:
        cmd.append("--toy")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        print("perfbench: sweep.py stopped at the run deadline", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: sweep.py exited with {proc.returncode}:\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _geomean(values) -> float:
    values = list(values)
    if min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _accuracy(sweeps, config_key) -> dict:
    """Geometric means over the summary rows of every distinct config run,
    and of the per-doubling ratio."""
    records_by_config = {}
    for _, cfgs, result in sweeps:
        for cfg, call in zip(cfgs, result["calls"] if result else []):
            if "records" in call:
                records_by_config.setdefault(config_key(cfg), call["records"])
    runs = list(records_by_config.values())
    rows = [r for records in runs for r in records]
    ratios = [
        b["sup_err_filter_interior"] / a["sup_err_filter_interior"]
        for records in runs for a, b in zip(records, records[1:])
    ]
    return {
        "err_interior": _geomean(r["sup_err_filter_interior"] for r in rows),
        "err_hybrid": _geomean(r["sup_err_hybrid_global"] for r in rows),
        "err_buffer": _geomean(r["sup_err_hybrid_buffers"] for r in rows),
        "interior_rate": _geomean(ratios),
    }


def _layer_metrics(traced, untraced_times, per_layer):
    """Medians over the traced sweeps; an absent metric reads 0 and is listed."""
    metrics, missing = {}, []
    for name, _ in per_layer:
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(r["sweep_s"] for r in traced)
                             - statistics.median(untraced_times))
            continue
        values = [r["layers"].get(name) for r in traced]
        if any(v is None for v in values):
            metrics[name] = 0.0
            missing.append(name)
        else:
            metrics[name] = statistics.median(values)
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main())
