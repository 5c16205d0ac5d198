"""Benchmark behind Tables V-VI: Watts-Strogatz density sweep."""
import pytest

from repro.graphs import generators as gen
from repro.tables import synthetic


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("algo", ["HG", "GC", "LP"])
def test_ws_sweep(benchmark, heuristic, degree, k, algo):
    e = gen.watts_strogatz(1000, degree, synthetic.REWIRE_P, seed=100 + degree)
    res = benchmark.pedantic(heuristic, args=(algo, e, k), rounds=1, iterations=1)
    assert res.size >= 0
