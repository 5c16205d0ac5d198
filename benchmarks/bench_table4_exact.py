"""Benchmark behind Table IV: exact OPT vs LP on small graphs."""
import pytest

from repro.core import lp, opt
from repro.core.prepare import Prepared
from repro.graphs import datasets
from repro.tables import common


@pytest.mark.parametrize("name", ["Swallow", "Tortoise", "Voles"])
def test_opt_small(benchmark, name):
    e = datasets.edges(name)
    status, _, _ = benchmark.pedantic(
        lambda: common.run_cell(
            lambda: opt.solve(Prepared(e, 4), common.fresh_budget(200_000, 60.0))
        ),
        rounds=1, iterations=1,
    )
    assert status in ("OK", "OOM", "OOT")


@pytest.mark.parametrize("name", ["Swallow", "Tortoise", "Voles"])
def test_lp_small(benchmark, name):
    e = datasets.edges(name)
    res = benchmark.pedantic(lambda: lp.solve(Prepared(e, 4)), rounds=1, iterations=1)
    assert res.size >= 0
