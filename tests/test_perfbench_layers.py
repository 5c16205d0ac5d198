"""Traced benchmark runs wrap every ``perfbench.tracing.LAYERS`` entry by
looking up ``module.attr``; a name that no longer resolves makes every
``--trace 1`` run fail, so each one must stay bound. The FindMin layer
also reads the ``valid`` argument to tell HeapInit from recomputes."""
import importlib
import inspect

import pytest

from perfbench import tracing
from repro.core import kernels
from repro.core.lp import lp_numpy

from tests.helpers import random_graph


@pytest.mark.parametrize("layer", tracing.LAYERS, ids=lambda l: f"{l.module}.{l.attr}")
def test_tracing_layer_resolves(layer):
    assert callable(getattr(importlib.import_module(layer.module), layer.attr))


def test_find_min_valid_is_the_argument_the_tracer_reads():
    """The tracer charges a FindMin call to ``heap_init`` when argument 4,
    ``valid``, is None and to ``recompute`` otherwise; renaming or moving
    that parameter would silently charge every recompute to HeapInit."""
    assert list(inspect.signature(kernels.find_min_clique).parameters)[4] == "valid"


def test_tracer_splits_heap_init_from_recomputes(monkeypatch):
    kinds = []
    find_min = kernels.find_min_clique

    def classified(*args, **kwargs):
        kinds.append(tracing._find_min_kind(args, kwargs))
        return find_min(*args, **kwargs)

    monkeypatch.setattr(kernels, "find_min_clique", classified)
    res = lp_numpy(random_graph(2, 48, "plc"), 4)
    assert res.n_recomputes > 0
    assert kinds.count("recompute") == res.n_recomputes
    assert kinds.count("heap_init") >= res.n_heap_init
