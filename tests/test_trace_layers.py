"""The benchmark's per-layer tracer names lf_forge functions by module and
attribute; a rename would drop a layer from `--trace 1` without an error."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_resolves(layer):
    module, owner, attr = LAYERS[layer]
    mod = importlib.import_module(f"lf_forge.{module}")
    if owner is None:
        assert callable(getattr(mod, attr))
    else:
        # the tracer rewraps the attribute in the class's own namespace
        assert attr in vars(getattr(mod, owner))
