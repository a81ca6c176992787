"""tools/same_results.py: equal trees agree, and a behaviour change shows."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _same_results(base: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_results.py"), str(base), str(change),
         "--runs", "5"],
        capture_output=True, text=True, timeout=120,
    )


def test_a_tree_matches_itself():
    proc = _same_results(SRC, SRC)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith(" 0 mismatches")


def test_a_changed_initial_window_is_a_mismatch(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    tcp = change / "ubrsim" / "tcp.py"
    text = tcp.read_text()
    assert text.count("self.cwnd = mss\n") == 2  # initial window and timeout reset
    tcp.write_text(text.replace("self.cwnd = mss\n", "self.cwnd = 2 * mss\n", 1))
    proc = _same_results(SRC, change)
    assert proc.returncode == 1, proc.stderr
    assert "mismatch" in proc.stdout
