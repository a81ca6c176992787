"""The package root, and what the README promises of the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_modules(statement: str) -> list[str]:
    """sys.modules of a fresh interpreter after statement, this checkout's src first."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_of_the_root_loads_no_submodule():
    # Every public name is imported from its module; the root exports nothing.
    assert [m for m in _fresh_modules("import ubrsim") if m.startswith("ubrsim.")] == []


def test_readme_documents_every_file_key():
    # The README's one key table lists every key of KEYS, in KEYS order:
    # the order in which a sweep crosses them.
    from ubrsim.scenario import KEYS

    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert rows == list(KEYS)


def test_import_loads_no_process_pool():
    # Only a parallel sweep starts a pool, so only it imports one.
    modules = set(_fresh_modules("import ubrsim.cli"))
    assert not {"concurrent.futures", "multiprocessing"} & modules
