"""Output checks of one benchmark run; run.py calls them after the timed sweeps.

A run_experiment call counts as failed if
- it raised;
- it returned a record count or file count other than its config implies;
- it wrote a non-finite value;
- its files are not byte-identical to those of the first call with the same
  config in the run;
- on fine-grid, f_filter at ORACLE_POINTS grid points at the first m
  differs from oracles.classical_filtered_sum by more than
  ORACLE_TOLERANCE (acceptance criterion 1).
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import workloads

# Python's float formatting writes non-finite values as nan / inf, in the
# CSV cells and in the SVG axis labels alike.
_NON_FINITE = re.compile(r"(?i)\b(nan|inf)\b")


def check_sweeps(workload: str, cfg_lists, results) -> tuple[int, list[str]]:
    """(calls attempted, one failure reason per failed call) over all sweeps.

    results[k] is sweep k's worker output, or None if the worker died.
    """
    attempted = 0
    failures = []
    reference: dict = {}  # config key -> {file name: sha256}
    for k, (cfgs, result) in enumerate(zip(cfg_lists, results)):
        calls = result["calls"] if result else []
        for i, cfg in enumerate(cfgs):
            attempted += 1
            call = calls[i] if i < len(calls) else None
            reason = _check_call(workload, cfg, call, reference)
            if reason:
                failures.append(
                    f"sweep {k}, {cfg.function}/{cfg.scheme}/seed {cfg.seed}: {reason}"
                )
    return attempted, failures


def _check_call(workload, cfg, call, reference) -> str | None:
    if call is None:
        return "worker ended without reporting this call"
    if "error" in call:
        return "raised " + call["error"].strip().splitlines()[-1]
    if len(call["records"]) != len(cfg.m_list):
        return f"{len(call['records'])} records, config implies {len(cfg.m_list)}"
    if len(call["files"]) != workloads.expected_file_count(cfg):
        return (f"{len(call['files'])} files, config implies "
                f"{workloads.expected_file_count(cfg)}")
    out = Path(cfg.output_dir)
    missing = [name for name in call["files"] if not (out / name).is_file()]
    if missing:
        return f"reported files missing: {missing}"
    contents = {name: (out / name).read_bytes() for name in call["files"]}
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in contents.items()}
    key = workloads.config_key(cfg)
    if key in reference:
        changed = sorted(n for n in digests if digests[n] != reference[key].get(n))
        return f"files differ from an earlier sweep: {changed}" if changed else None

    # first call with this config: its files become the reference
    record_values = [v for r in call["records"] for v in r.values() if isinstance(v, float)]
    if not all(math.isfinite(v) for v in record_values):
        return "non-finite value in the returned records"
    bad = sorted(n for n, data in contents.items() if _NON_FINITE.search(data.decode()))
    if bad:
        return f"non-finite values written to {bad}"
    if workload == "fine-grid":
        grid_csv = next(n for n in call["files"] if n.endswith(f"_m{cfg.m_list[0]}.csv"))
        deviation = oracle_deviation(cfg, contents[grid_csv].decode())
        if not deviation <= workloads.ORACLE_TOLERANCE:
            return (f"f_filter differs from the classical filtered sum by "
                    f"{deviation:.3e} > {workloads.ORACLE_TOLERANCE:g}")
    reference[key] = digests
    return None


def oracle_deviation(cfg, grid_csv: str) -> float:
    """Max |f_filter - classical filtered sum| over a fixed subset of grid points.

    Uniform scheme only: there Omega is the identity and n = m, so the frame
    reconstruction must equal the classical sum with the per-point HDAF
    parameters gamma = sqrt(alpha d m), p = floor(kappa d m).
    """
    from fourierhybrid.oracles import classical_filtered_sum, projection_coefficients

    lines = [line for line in grid_csv.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    col_x, col_filter = header.index("x"), header.index("f_filter")
    rows = lines[1:]
    f = cfg.resolve_function()
    m = n = cfg.m_list[0]
    f_hat = projection_coefficients(f, n)
    worst = 0.0
    step = (len(rows) - 1) / (workloads.ORACLE_POINTS - 1)
    for k in range(workloads.ORACLE_POINTS):
        fields = rows[round(k * step)].split(",")
        x, value = float(fields[col_x]), float(fields[col_filter])
        d = min(abs(x - jump) for jump in f.breakpoints)
        gamma = math.sqrt(cfg.alpha * d * m)
        p = math.floor(cfg.kappa * d * m)
        worst = max(worst, abs(value - classical_filtered_sum(f_hat, p, gamma, m, n, x)))
    return worst
