"""Every exported name resolves: a deletion must take its ``__all__`` entry
with it, or ``from lf_forge import *`` fails."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["lf_forge", "lf_forge.equivalence", "lf_forge.certify"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
