"""Traced benchmark runs wrap every ``perfbench.tracing.LAYERS`` entry by
looking up ``module.attr``; a name that no longer resolves makes every
``--trace 1`` run fail, so each one must stay bound."""
import importlib

import pytest

from perfbench import tracing


@pytest.mark.parametrize("layer", tracing.LAYERS, ids=lambda l: f"{l.module}.{l.attr}")
def test_tracing_layer_resolves(layer):
    assert callable(getattr(importlib.import_module(layer.module), layer.attr))
