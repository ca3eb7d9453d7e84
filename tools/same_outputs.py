"""Check that two source trees write byte-identical benchmark outputs.

    python3 tools/same_outputs.py OTHER_TREE [--toy]

Writes every output file of the configs in perfbench/workloads.py (seed 1:
paper-matrix sweeps 0-3, fine-grid sweep 0) once with this checkout's
fourierhybrid and once with OTHER_TREE's, each tree in its own fresh
interpreter, and compares the two sets file by file. Both trees run the
configs of this checkout's workloads.py, which is imported without writing
bytecode. --toy shrinks m and the grid as perfbench's --toy does.

Exit codes: 0 when every file is byte-identical and present on both sides,
1 when a file differs or exists on one side only (each is named), 2 when a
tree cannot write its outputs. A CSV that differs is followed by the largest
absolute difference of each numeric column, so a move shows its size.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (workload, sweep) pairs written at seed 1
SWEEPS = [("paper-matrix", sweep) for sweep in range(4)] + [("fine-grid", 0)]
SEED = 1


def write_outputs(tree: Path, out: Path, toy: bool) -> None:
    """Run every config of SWEEPS with tree's fourierhybrid, writing under out."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import fourierhybrid
    from fourierhybrid.experiments import run_experiment

    import workloads

    if Path(fourierhybrid.__file__).resolve().parent != (tree / "src" / "fourierhybrid").resolve():
        raise RuntimeError(f"imported {fourierhybrid.__file__}, not the tree's own package")
    for workload, sweep in SWEEPS:
        for cfg in workloads.configs(workload, SEED, out / f"{workload}-{sweep}", sweep, toy):
            run_experiment(cfg)


def differences(left: Path, right: Path, names=("left", "right")) -> list[str]:
    """One line per file under left or right that is not byte-identical on both sides."""
    left_files = {p.relative_to(left) for p in left.rglob("*") if p.is_file()}
    right_files = {p.relative_to(right) for p in right.rglob("*") if p.is_file()}
    lines = [f"only in {names[0]}: {p}" for p in sorted(left_files - right_files)]
    lines += [f"only in {names[1]}: {p}" for p in sorted(right_files - left_files)]
    lines += [
        f"differs: {p}" for p in sorted(left_files & right_files)
        if not filecmp.cmp(left / p, right / p, shallow=False)
    ]
    return lines


def _csv_rows(path: Path) -> list[list[str]]:
    """The column line and the rows of a CSV, without its '#' preamble."""
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")]


def column_moves(left: Path, right: Path) -> list[str]:
    """One line per numeric column of two CSVs: its largest |left - right|.

    A column is numeric where every cell of both files parses as a float; a
    file whose column lines or row counts disagree gets one line saying so.
    """
    a, b = _csv_rows(left), _csv_rows(right)
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return ["  column lines or row counts differ"]
    lines = []
    for k, name in enumerate(a[0]):
        try:
            moved = max((abs(float(x[k]) - float(y[k])) for x, y in zip(a[1:], b[1:])),
                        default=0.0)
        except (ValueError, IndexError):
            continue
        if moved:
            lines.append(f"  {name}: max |diff| {moved:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    parser.add_argument("--toy", action="store_true")
    # internal: write one tree's outputs in this interpreter
    parser.add_argument("--write-to", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_to is not None:
        write_outputs(args.other_tree.resolve(), args.write_to, args.toy)
        return 0

    other = args.other_tree.resolve()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as scratch:
        outs = []
        for side, tree in (("this", ROOT), ("other", other)):
            out = Path(scratch) / side
            command = [sys.executable, str(Path(__file__).resolve()), str(tree),
                       "--write-to", str(out)] + (["--toy"] if args.toy else [])
            if subprocess.run(command, env=env).returncode:
                print(f"same_outputs: {tree} could not write its outputs", file=sys.stderr)
                return 2
            outs.append(out)
        lines = differences(*outs, names=(str(ROOT), str(other)))
        count = sum(1 for p in outs[0].rglob("*") if p.is_file())
        for line in lines:
            print(line)
            if line.startswith("differs: ") and line.endswith(".csv"):
                name = line.removeprefix("differs: ")
                for move in column_moves(outs[0] / name, outs[1] / name):
                    print(move)
    if lines:
        print(f"same_outputs: {len(lines)} file(s) not byte-identical between {ROOT} and {other}")
        return 1
    print(f"same_outputs: all {count} files byte-identical between {ROOT} and {other}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
