"""Quick self-test of the benchmark at toy size (m = 16, 32 on a 64-point grid).

    python3 -m pytest perfbench/tests -q

Runs every workload's code path traced and untraced and checks that each
metric BENCHMARK.json names is printed in the table with its unit and in
the final JSON line, and that a directory without the package source gives
a non-zero exit and no result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    text = "\n".join(table)
    for m in wanted + [{"name": "failed_share", "unit": "share"}]:
        row = rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)"
        assert re.search(row, text, re.M), f"{m['name']} missing from the table"
    assert re.search(r"^failed_share\s+0\s", text, re.M)
    assert re.search(r'^env: \{.*"numpy".*"seed": 3', text, re.M)
    if trace:
        assert "absent hooks: none" in text


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", "fine-grid", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_workload_reasons_match_benchmark_json():
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    assert workloads.WHY == {w["name"]: w["why"] for w in SPEC["workloads"]}
