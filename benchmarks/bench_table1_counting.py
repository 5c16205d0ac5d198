"""Benchmark behind Table I: k-clique counting from the node scores."""
import pytest

from repro.core import clique_listing
from repro.core.prepare import Prepared
from repro.graphs import datasets


@pytest.mark.parametrize("name", ["FTB", "HST"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_count_kcliques(benchmark, name, k):
    e = datasets.edges(name)
    result = benchmark.pedantic(
        lambda: clique_listing.count_kcliques(Prepared(e, k)), rounds=1, iterations=1
    )
    assert result >= 0
