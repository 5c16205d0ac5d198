"""Benchmark behind Table VII: the driver candidate-index build."""
import pytest

from repro.dynamic import index as idx_mod
from repro.graphs import datasets
from repro.tables.table7 import build_state


@pytest.mark.parametrize("name", ["FTB", "HST"])
@pytest.mark.parametrize("k", [3, 4])
def test_index_build(benchmark, name, k):
    e = datasets.edges(name)
    state = build_state(e, k)

    def build():
        idx_mod.build_index(state)
        return idx_mod.index_size(state)

    size = benchmark.pedantic(build, rounds=1, iterations=1)
    assert size >= 0
