import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from same_outputs import differences  # noqa: E402


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
