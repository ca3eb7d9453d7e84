"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload fine-grid --seeds 1-10 --seconds 20 --trace 0

Runs run.py once per seed, one run at a time, and prints for every metric
the median, the first and third quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
--out writes the same summary, the per-seed values and the environment as
JSON, which is how the files under perfbench/trajectory/ are made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    env = None
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        env = env or json.loads(next(l for l in lines if l.startswith("env: "))[5:])
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread if median else None}
        print(f"{name:<36} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f} {first['unit']}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "env": {k: v for k, v in env.items() if k not in ("seed", "trace", "seconds")},
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "summary": summary, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
