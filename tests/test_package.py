"""The package's public surface."""

import types

import gpdtools


def test_all_lists_every_public_name():
    # Every name the package imports for its users, and nothing else: a
    # name missing from __all__ is not bound by `from gpdtools import *`.
    public = {
        name
        for name, value in vars(gpdtools).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(gpdtools.__all__)) == len(gpdtools.__all__)
    assert set(gpdtools.__all__) == public
