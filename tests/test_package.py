"""The package root: every exported name resolves."""

import ubrsim


def test_every_exported_name_resolves():
    missing = [name for name in ubrsim.__all__ if not hasattr(ubrsim, name)]
    assert not missing
    assert len(set(ubrsim.__all__)) == len(ubrsim.__all__)
