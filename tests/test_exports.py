"""Every exported name resolves: a deletion must take its ``__all__`` entry
with it, or ``from lf_forge import *`` fails."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["lf_forge", "lf_forge.equivalence", "lf_forge.certify"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_unknown_names_raise_attribute_error():
    import lf_forge

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(lf_forge, "no_such_name")
    assert not hasattr(lf_forge, "no_such_name")


def test_exports_follow_a_rebinding_in_their_module(monkeypatch):
    import lf_forge
    from lf_forge import builders

    original = builders.johns_fibration
    monkeypatch.setattr(builders, "johns_fibration", len)
    assert lf_forge.johns_fibration is len
    monkeypatch.undo()
    assert lf_forge.johns_fibration is original
