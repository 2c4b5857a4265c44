"""The benchmark's per-layer tracer (``bench/layers.py``) wraps functions of
``hkfun`` by name; a rename would make ``bench/run.py --trace 1`` raise
``AttributeError``.  This reads the tracer's table and changes nothing."""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_name_resolves_on_hkfun():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYERS
    for owner, attr, layer in layers.LAYERS:
        name = owner.__module__ if isinstance(owner, type) else owner.__name__
        assert name.startswith("hkfun"), layer
        assert callable(getattr(owner, attr, None)), f"{name}.{attr} ({layer})"
