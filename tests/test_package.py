"""The package root: every exported name resolves."""

import ubrsim


def test_every_exported_name_resolves():
    missing = [name for name in ubrsim.__all__ if not hasattr(ubrsim, name)]
    assert not missing
    assert len(set(ubrsim.__all__)) == len(ubrsim.__all__)


def test_readme_documents_every_file_key():
    from pathlib import Path

    from ubrsim.scenario import KEYS
    from ubrsim.sweep import _SWEEP_KEYS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    keys = [key for table in (KEYS, _SWEEP_KEYS) for section in table.values() for key in section]
    missing = [key for key in keys if f"| `{key}` |" not in readme]
    assert not missing


def test_import_loads_no_process_pool():
    # Only a parallel sweep starts a pool, so only it imports one.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    code = ("import sys, ubrsim, ubrsim.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
