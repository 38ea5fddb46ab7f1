"""The package's public names."""
from __future__ import annotations

import dsasim


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from dsasim import *", namespace)  # AttributeError on a stale __all__ entry
    assert set(dsasim.__all__) <= namespace.keys()
    assert len(set(dsasim.__all__)) == len(dsasim.__all__)
