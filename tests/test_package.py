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
