"""Validation-oracle and budget-machinery tests."""
import time

import numpy as np
import pytest

from repro.core import gc as gc_mod
from repro.core import kernels
from repro.core import lp as lp_mod
from repro.core import validate
from repro.core.clique_listing import list_kcliques
from repro.core.mis import exact_mis
from repro.core.prepare import Prepared
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT
from repro.graphs import adjacency as adj_mod

from tests.helpers import TripBudget, paper_fig2_edges, random_graph


def test_is_clique_and_not():
    adj = adj_mod.adj_sets(paper_fig2_edges())
    assert validate.is_clique(adj, (1, 3, 6))
    assert not validate.is_clique(adj, (1, 2, 3))
    assert not validate.is_clique(adj, (1, 1, 3))  # duplicate node


def test_is_disjoint():
    assert validate.is_disjoint([(1, 2, 3), (4, 5, 6)])
    assert not validate.is_disjoint([(1, 2, 3), (3, 4, 5)])
    assert validate.is_disjoint([])


def test_assert_valid_solution_passes_and_fails():
    e = paper_fig2_edges()
    validate.assert_valid_solution(e, 3, [(1, 3, 6), (2, 4, 9)])
    with pytest.raises(AssertionError):
        validate.assert_valid_solution(e, 3, [(1, 2, 3)])  # not a clique
    with pytest.raises(AssertionError):
        validate.assert_valid_solution(e, 3, [(1, 3, 6), (3, 5, 6)])  # overlap
    with pytest.raises(AssertionError):
        validate.assert_valid_solution(e, 4, [(1, 3, 6)])  # wrong size


def test_free_nodes():
    e = paper_fig2_edges()
    free = validate.free_nodes(e, [(1, 3, 6)])
    assert free == {2, 4, 5, 7, 8, 9}


def test_is_maximal_cases():
    e = paper_fig2_edges()
    assert validate.is_maximal(e, 3, [(1, 3, 6), (2, 4, 9), (5, 7, 8)])
    assert not validate.is_maximal(e, 3, [(3, 5, 6)])  # (2,4,9) remains


def test_brute_force_max_disjoint_fig2():
    assert validate.brute_force_max_disjoint(paper_fig2_edges(), 3) == 3


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["pp", "plc", "er"])
@pytest.mark.parametrize("k", [3, 4])
def test_brute_force_max_disjoint_equals_clique_graph_mis(seed, kind, k):
    """The bounded search is exact: it equals the maximum independent
    set of the clique graph (cliques adjacent iff they share a node)."""
    e = random_graph(seed, 20, kind)
    cliques = sorted(validate.brute_force_all_kcliques(e, k))
    cg = [sum(1 << j for j, d in enumerate(cliques) if d != c and set(c) & set(d))
          for c in cliques]
    assert validate.brute_force_max_disjoint(e, k) == len(exact_mis(cg))


def test_brute_force_all_kcliques_sizes():
    e = paper_fig2_edges()
    assert len(validate.brute_force_all_kcliques(e, 3)) == 7
    assert len(validate.brute_force_all_kcliques(e, 4)) == 0


def test_budget_count_guard():
    b = Budget(max_cliques=10)
    b.check_count(10)
    with pytest.raises(SimulatedOOM):
        b.check_count(11)


def test_budget_time_guard():
    b = Budget(max_seconds=100)
    b.check_time()
    b2 = Budget(max_seconds=-5.0)
    with pytest.raises(SimulatedOOT):
        b2.check_time()


def test_budget_unbounded_noops():
    b = Budget()
    b.check_count(10**12)
    b.check_time()
    assert b.deadline is None


def test_budget_deadline_set_at_construction_and_shipped():
    """The deadline is one ``time.monotonic()`` reading, stamped at
    construction: a budget made now runs out ``max_seconds`` later,
    however late its first check comes."""
    t0 = time.monotonic()
    b = Budget(max_seconds=60)
    assert t0 + 60 <= b.deadline <= time.monotonic() + 60
    b.check_time()
    expired = Budget(max_seconds=0.01)
    time.sleep(0.02)
    with pytest.raises(SimulatedOOT):
        expired.check_time()


def test_listing_checks_the_budget_once_per_source():
    prep = Prepared(random_graph(0, 80, "plc"), 4)
    with pytest.raises(SimulatedOOT):
        list_kcliques(prep, Budget(max_seconds=-1.0))
    counted = TripBudget()
    want = list_kcliques(prep, counted)
    # One check follows the count that sizes the array, then one per source.
    assert counted.calls == 1 + len(prep.degree_adj.sources(4))
    with pytest.raises(SimulatedOOT):
        list_kcliques(prep, TripBudget(trip_at=counted.calls))
    assert np.array_equal(list_kcliques(prep, TripBudget(trip_at=counted.calls + 1)), want)
    assert np.array_equal(want, list_kcliques(prep))


@pytest.mark.parametrize("prune", [True, False], ids=["LP", "L"])
def test_lp_checks_the_budget_in_calculation(prune):
    """L/LP checks the clock once before HeapInit, once per HeapInit
    source and once per Calculation recompute; the last check is a
    recompute's, so a budget that trips there raises, and one that
    allows one more check returns the unbudgeted result."""
    prep = Prepared(random_graph(2, 48, "plc"), 4)
    want = lp_mod.solve(prep, prune)
    assert want.n_recomputes > 0
    counted = TripBudget()
    assert lp_mod.solve(prep, prune, counted) == want
    assert counted.calls == 1 + len(prep.adj.sources(4)) + want.n_recomputes
    with pytest.raises(SimulatedOOT):
        lp_mod.solve(prep, prune, TripBudget(trip_at=counted.calls))
    assert lp_mod.solve(prep, prune, TripBudget(trip_at=counted.calls + 1)) == want



def _counting(monkeypatch, name):
    """Wrap ``kernels.<name>`` so that the list it returns grows by one
    entry, the ``valid`` argument, per call."""
    calls = []
    kernel = getattr(kernels, name)

    def counted(*args, **kwargs):
        calls.append(args[4] if len(args) > 4 else kwargs.get("valid"))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(kernels, name, counted)
    return calls


@pytest.mark.parametrize("phase", ["heap_init", "recompute", "listing"])
def test_budget_oot_mid_loop(monkeypatch, phase):
    """A deadline that runs out after the first source stops each
    per-source loop there: the clock check before the second source (or
    the second recompute) raises, after exactly one kernel call of that
    loop. Every check before the loop passes."""
    prep = Prepared(random_graph(2, 48, "plc"), 4)
    n_sources = len(prep.adj.sources(4))
    assert n_sources > 1 and len(prep.degree_adj.sources(4)) > 1
    if phase == "listing":
        calls = _counting(monkeypatch, "enumerate_from_source")
        # Check 1 follows the listing's count; checks 2, 3, ... precede each source.
        with pytest.raises(SimulatedOOT):
            gc_mod.solve(prep, TripBudget(trip_at=3))
        assert len(calls) == 1
        return
    assert lp_mod.solve(prep).n_recomputes > 1
    calls = _counting(monkeypatch, "find_min_clique")
    # Check 1 precedes HeapInit, checks 2..n_sources + 1 its sources and
    # the later ones each Calculation recompute.
    first_of_loop = 2 if phase == "heap_init" else 2 + n_sources
    with pytest.raises(SimulatedOOT):
        lp_mod.solve(prep, True, TripBudget(trip_at=first_of_loop + 1))
    in_loop = [v for v in calls if (v is None) == (phase == "heap_init")]
    assert len(in_loop) == 1
    assert len(calls) == (1 if phase == "heap_init" else n_sources + 1)
