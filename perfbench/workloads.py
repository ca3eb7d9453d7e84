"""Benchmark workloads: the ExperimentConfig list each one runs, and why.

A workload is a list of `run_experiment` calls made in a closed loop by one
process: one caller, and each call starts after the previous one returned.
The configs are a pure function of the workload name, the seed and the
sweep number, so the parent (which checks outputs) and the worker (which
runs them) agree.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from fourierhybrid.experiments import ExperimentConfig

WHY = {
    "paper-matrix": (
        "what a user reproducing the paper runs: {f1,f2} x {jittered,log}, "
        "m=128,256,512, grid 1024, csv+svg, one jitter draw per sweep; time "
        "spread over sampling, frame, filters"
    ),
    "fine-grid": (
        "many points, few frequencies: {f1,f2} uniform, m=64,128, grid 32768, "
        "csv+svg; per-point filter parameters and I/O dominate, and an oracle "
        "checks the output"
    ),
}

# The hybrid error of one jitter draw is erratic: over 8 seeds the f2
# buffer error at m=512 ranged 8.8 to 42. So paper-matrix sweeps cycle
# through this many jitter draws, and a run's accuracy is taken over all of
# them. The first draw is the seed itself, so seed 42 includes the README's
# default run.
JITTER_DRAWS = 4

# Distinct sweeps per run. A run makes at least one more, which repeats the
# first, so that every config's files are compared with an earlier copy.
CYCLE = {"paper-matrix": JITTER_DRAWS, "fine-grid": 1}

# Criterion 1: on the uniform scheme the frame reconstruction equals the
# classical filtered partial sum. Checked at the first m of fine-grid.
ORACLE_TOLERANCE = 1e-10
ORACLE_POINTS = 16


def jitter_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [seed] + [rng.randrange(2**32) for _ in range(JITTER_DRAWS - 1)]


def configs(workload: str, seed: int, out_dir, sweep: int = 0,
            toy: bool = False) -> list[ExperimentConfig]:
    """Sweep number `sweep` of the workload; toy shrinks m and the grid."""
    out_dir = Path(out_dir)
    if workload == "paper-matrix":
        m_list, grid = ((16, 32), 64) if toy else ((128, 256, 512), 1024)
        draw = jitter_seeds(seed)[sweep % JITTER_DRAWS]
        runs = [(f, scheme, s) for f in ("f1", "f2")
                for scheme, s in (("jittered", draw), ("log", seed))]
    elif workload == "fine-grid":
        m_list, grid = ((16, 32), 64) if toy else ((64, 128), 32768)
        runs = [(f, "uniform", seed) for f in ("f1", "f2")]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    return [
        ExperimentConfig(
            function=function,
            scheme=scheme,
            m_list=m_list,
            seed=run_seed,
            grid_size=grid,
            formats=("csv", "svg"),
            output_dir=str(out_dir / f"{function}_{scheme}_{run_seed}"),
        )
        for function, scheme, run_seed in runs
    ]


def config_key(cfg: ExperimentConfig) -> ExperimentConfig:
    """The config without its output directory: equal keys, equal files."""
    return dataclasses.replace(cfg, output_dir="")


def expected_file_count(cfg: ExperimentConfig) -> int:
    """Files run_experiment writes: per m a grid CSV and two SVGs, plus two tables."""
    per_m = ("csv" in cfg.formats) + 2 * ("svg" in cfg.formats)
    return per_m * len(cfg.m_list) + 2 * ("csv" in cfg.formats)
