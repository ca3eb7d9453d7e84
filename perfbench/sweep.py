"""One sweep of a benchmark workload, in a fresh interpreter.

Started by run.py once per timed sweep, so the package's caches and the
peak resident set start cold, as they do for a user of the CLI. Prints one
JSON object as its last line of output:

- setup_s: time from the parent's spawn (`--spawned-at`, on the shared
  monotonic clock) to fourierhybrid imported and every config validated;
- sweep_s: wall time of the workload's run_experiment calls, file writes
  included;
- peak_rss_mb, the process's peak resident set;
- calls: per run_experiment call, its records and files, or its error;
- layers: per-layer values, with --trace 1.

With --setup-only it stops after setup_s.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from fourierhybrid.experiments import run_experiment

    import workloads

    cfgs = workloads.configs(args.workload, args.seed, args.out, args.sweep, args.toy)
    for cfg in cfgs:
        cfg.validate()
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        import tracing

        tracer = tracing.install()
    outcomes = []
    started = time.perf_counter()
    for cfg in cfgs:
        call_started = time.perf_counter()
        try:
            report = run_experiment(cfg)
        except Exception:  # a failed call is counted by run.py, not fatal
            outcomes.append(traceback.format_exc())
            continue
        outcomes.append((report, time.perf_counter() - call_started))
    sweep_s = time.perf_counter() - started

    calls = []
    io_s = 0.0
    files = []
    for outcome in outcomes:
        if isinstance(outcome, str):
            calls.append({"error": outcome})
            continue
        report, call_s = outcome
        # run_experiment time outside the per-m records: file writes, mostly
        io_s += call_s - sum(r.wall_time for r in report.records)
        files.extend(report.files)
        calls.append({
            "records": [dataclasses.asdict(r) for r in report.records],
            "files": [os.path.relpath(f, report.config.output_dir) for f in report.files],
        })
    result.update(
        sweep_s=sweep_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        calls=calls,
        env=environment(),
    )
    if args.trace:
        result["layers"] = tracing.layer_values(tracer, sweep_s, io_s, files)
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
