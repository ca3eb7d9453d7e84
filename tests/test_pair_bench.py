import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from pair_bench import summarize  # noqa: E402

PAIR_BENCH = str(ROOT / "tools" / "pair_bench.py")


def test_toy_pair_on_this_tree_passed_twice():
    done = subprocess.run(
        [sys.executable, PAIR_BENCH, str(ROOT), str(ROOT), "--workload", "fine-grid",
         "--pairs", "1", "--seconds", "1", "--toy"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout)
    assert [(r["pair"], r["seed"], r["side"]) for r in result["runs"]] == [
        (0, 2, "parent"), (0, 2, "change")]
    assert all(r["correct"] and r["failed"] == 0 for r in result["runs"])
    for name in ("setup_s", "sweep_s", "peak_rss_mb", "err_hybrid"):
        for side in ("parent", "change"):
            q = result["summary"][name][side]
            assert q["q1"] == q["median"] == q["q3"] == next(
                r[name] for r in result["runs"] if r["side"] == side)
        assert sum(result["pairs_won"][name].values()) == 1
    # both sides ran the same code on the same seed
    assert result["pairs_won"]["err_hybrid"] == {"parent": 0, "change": 0, "ties": 1}


def test_refuses_directory_names_of_unequal_length(tmp_path):
    for name in ("a", "bb"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
    done = subprocess.run(
        [sys.executable, PAIR_BENCH, str(tmp_path / "a"), str(tmp_path / "bb"),
         "--workload", "fine-grid", "--pairs", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "differ in length" in done.stderr and done.stdout == ""


def test_summarize_counts_complete_pairs_and_skips_failed_runs():
    runs = [
        {"pair": 0, "seed": 2, "side": "parent", "correct": True, "attempted": 1, "failed": 0,
         "sweep_s": 0.4},
        {"pair": 0, "seed": 2, "side": "change", "correct": True, "attempted": 1, "failed": 0,
         "sweep_s": 0.3},
        {"pair": 1, "seed": 3, "side": "change", "correct": True, "attempted": 1, "failed": 0,
         "sweep_s": 0.5},
        {"pair": 1, "seed": 3, "side": "parent", "correct": True, "attempted": 1, "failed": 0,
         "sweep_s": 0.5},
        {"pair": 2, "seed": 4, "side": "parent", "correct": True, "attempted": 1, "failed": 0,
         "sweep_s": 0.2},
        {"pair": 2, "seed": 4, "side": "change", "error": "exit 1: boom"},
    ]
    summary, wins = summarize(runs)
    assert wins == {"sweep_s": {"parent": 0, "change": 1, "ties": 1}}
    # statistics.quantiles' exclusive method; the failed run is left out
    assert summary["sweep_s"]["change"] == pytest.approx({"q1": 0.25, "median": 0.4, "q3": 0.55})
    assert summary["sweep_s"]["parent"] == pytest.approx({"q1": 0.2, "median": 0.4, "q3": 0.5})
