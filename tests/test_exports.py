"""Every exported name resolves: a deletion must take its ``__all__`` entry
with it, or ``from lf_forge import *`` fails.  The package's ``_EXPORTS`` is
its one export list."""

import importlib
import pkgutil

import pytest


@pytest.mark.parametrize("module", ["lf_forge"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_no_submodule_keeps_an_export_list_of_its_own():
    """Only the package defines ``__all__`` (from ``_EXPORTS``); a second
    list in a submodule could drift from it."""
    import lf_forge

    modules = [info.name for info in pkgutil.iter_modules(lf_forge.__path__)]
    assert "builders" in modules
    assert [m for m in modules if hasattr(importlib.import_module(f"lf_forge.{m}"), "__all__")] == []


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
