"""Benchmark behind Table II / Fig. 6: HG vs GC vs LP wall time and
solution quality on the dataset stand-ins."""
import pytest

from repro.graphs import datasets


@pytest.mark.parametrize("name", ["FTB", "HST"])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("algo", ["HG", "GC", "LP"])
def test_static_algorithms(benchmark, heuristic, name, k, algo):
    e = datasets.edges(name)
    res = benchmark.pedantic(heuristic, args=(algo, e, k), rounds=1, iterations=1)
    assert res.size >= 0
