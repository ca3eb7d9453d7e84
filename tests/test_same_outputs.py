import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from same_outputs import column_moves, differences  # noqa: E402


def test_toy_run_against_its_own_checkout_exits_zero():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(ROOT), "--toy"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "files byte-identical" in done.stdout


def test_differences_names_every_mismatch(tmp_path):
    left, right = tmp_path / "left", tmp_path / "right"
    for side in (left, right):
        (side / "run").mkdir(parents=True)
        (side / "run" / "same.csv").write_bytes(b"1,2\n")
    (left / "run" / "changed.csv").write_bytes(b"1.0\n")
    (right / "run" / "changed.csv").write_bytes(b"1.1\n")
    (left / "run" / "left_only.svg").write_bytes(b"")
    (right / "right_only.csv").write_bytes(b"")
    assert differences(left, right, names=("A", "B")) == [
        f"only in A: {Path('run/left_only.svg')}",
        "only in B: right_only.csv",
        f"differs: {Path('run/changed.csv')}",
    ]
    assert differences(left / "run", left / "run") == []


def test_column_moves_gives_each_moved_numeric_column(tmp_path):
    left, right = tmp_path / "left.csv", tmp_path / "right.csv"
    left.write_text("# seed=1\nx,value,error,note\n0.5,1.0,2e-3,a\n0.75,2.0,4e-3,b\n")
    right.write_text("# seed=2\nx,value,error,note\n0.5,1.25,2e-3,a\n0.75,2.0,3.5e-3,c\n")
    assert column_moves(left, right) == [
        "  value: max |diff| 0.25",
        "  error: max |diff| 0.0005",
    ]
    right.write_text("x,value,error,note\n0.5,1.0,2e-3,a\n")
    assert column_moves(left, right) == ["  column lines or row counts differ"]
