"""Benchmark-local fixtures: medium dataset handles at benchmark SF.

Benchmarks run each heavy case once (``pedantic`` with one round) —
wall-clock per table cell is what the paper reports, not microbenchmark
statistics.
"""
import pytest

from repro.core import gc, hg, lp
from repro.core.prepare import Prepared
from repro.graphs import datasets
from repro.tables import common


@pytest.fixture(scope="session")
def bench_edges():
    """Edge arrays for the benchmark datasets (generation is memoized)."""
    return {name: datasets.edges(name) for name in ("FTB", "HST", "FBP")}


@pytest.fixture
def heuristic():
    """``heuristic(algo, e, k)`` runs "HG", "GC" or "LP" as a Table II or
    Table V cell does: on its own ``Prepared(e, k)``, so the time
    includes the preparation, with GC and LP under a fresh budget."""

    def run(algo, e, k):
        prep = Prepared(e, k)
        if algo == "HG":
            return hg.solve(prep)
        solve = {"GC": gc.solve, "LP": lp.solve}[algo]
        return solve(prep, budget=common.fresh_budget())

    return run
