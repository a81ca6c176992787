"""tools/work_counts.py: one JSON line of counts that repeats exactly."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _work_counts() -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "work_counts.py"), str(ROOT / "src"),
         "--setups", "2", "--seconds", "0.01"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_counts_parse_and_repeat():
    first = _work_counts()
    counts = json.loads(first)
    assert set(counts) == {"import_modules", "setup_calls", "cell_calls"}
    workloads = {"lan-lossless", "wan-lossless", "lan-policies"}
    assert set(counts["setup_calls"]) == set(counts["cell_calls"]) == workloads
    assert counts["import_modules"] > 0 and min(counts["cell_calls"].values()) > 0
    assert _work_counts() == first
