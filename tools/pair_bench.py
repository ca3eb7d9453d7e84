"""Compare two source trees on one benchmark workload in alternating pairs.

    python3 tools/pair_bench.py PARENT CHANGE --workload W --pairs N --seconds S [--toy]

Pair i runs `perfbench/run.py --workload W --seed 2+i --seconds S --trace 0`
once in each tree, each tree with its own perfbench, the parent first in
even pairs and the change first in odd ones. The two trees' directory names
must have equal length: the fine-grid peak RSS moves by about 1.4 MiB with
the checkout's name alone.

Prints one JSON object: every run's metrics, each side's median and
quartiles (statistics.quantiles, n=4) per metric, and per metric how many
pairs each side won (lower wins, as for every metric of BENCHMARK.json).
Progress goes to stderr. --toy passes perfbench's --toy, for the self-test.

Exit codes: 0 when every run succeeded, 1 when a run failed (it is recorded
with its error and left out of the summary), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 2
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float, toy: bool) -> dict:
    """One untraced perfbench run in tree: its result line, or the error it gave."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    if toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 (exclusive method); one value is all three."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(runs: list[dict]) -> tuple[dict, dict]:
    """Per metric, each side's quartiles and how many complete pairs each side won."""
    ok = [r for r in runs if "error" not in r]
    metrics = [k for k in ok[0] if k not in ("pair", "seed", "side", "correct",
                                            "attempted", "failed")] if ok else []
    summary = {name: {side: quartiles([r[name] for r in ok if r["side"] == side])
                      for side in SIDES if any(r["side"] == side for r in ok)}
               for name in metrics}
    by_pair = {}
    for r in ok:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    wins = {}
    for name in metrics:
        count = {"parent": 0, "change": 0, "ties": 0}
        for pair in by_pair.values():
            if len(pair) == 2:
                a, b = pair["parent"][name], pair["change"][name]
                count["parent" if a < b else "change" if b < a else "ties"] += 1
        wins[name] = count
    return summary, wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"pair_bench: {side} tree {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    if len(trees["parent"].name) != len(trees["change"].name):
        print(f"pair_bench: the directory names {trees['parent'].name!r} and "
              f"{trees['change'].name!r} differ in length, which alone moves peak RSS; "
              "copy the trees to names of equal length", file=sys.stderr)
        return 2
    if args.pairs < 1 or not args.seconds > 0:
        print("pair_bench: need --pairs >= 1 and --seconds > 0", file=sys.stderr)
        return 2

    runs = []
    for pair in range(args.pairs):
        seed = FIRST_SEED + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run = {"pair": pair, "seed": seed, "side": side,
                   **run_once(trees[side], args.workload, seed, args.seconds, args.toy)}
            runs.append(run)
            print(json.dumps(run), file=sys.stderr)
    summary, wins = summarize(runs)
    print(json.dumps({
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace 0" + (" --toy" if args.toy else ""),
        "trees": {side: str(tree) for side, tree in trees.items()},
        "seeds": f"{FIRST_SEED}-{FIRST_SEED + args.pairs - 1}",
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "summary": summary,
        "pairs_won": wins,
        "runs": runs,
    }, indent=1))
    return 1 if any("error" in r for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
