"""Validation-oracle and budget-machinery tests."""
import time

import numpy as np
import pytest

from repro.core import validate
from repro.core.mis import exact_mis
from repro.core.budgets import (
    Budget,
    OOM_MARKER,
    OOT_MARKER,
    SimulatedOOM,
    SimulatedOOT,
    translate_spark_error,
)
from repro.graphs import adjacency as adj_mod

from tests.helpers import paper_fig2_edges, random_graph


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
    cg = {c: {d for d in cliques if d != c and set(c) & set(d)} for c in cliques}
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
    b2 = Budget(max_seconds=0.0, started=time.monotonic() - 5)
    with pytest.raises(SimulatedOOT):
        b2.check_time()


def test_budget_unbounded_noops():
    b = Budget()
    b.check_count(10**12)
    b.check_time()
    assert b.epoch_deadline is None


def test_budget_epoch_deadline_in_future():
    b = Budget(max_seconds=60)
    assert b.epoch_deadline > time.time()


def test_translate_spark_error():
    assert isinstance(translate_spark_error(RuntimeError(f"x {OOM_MARKER} y")), SimulatedOOM)
    assert isinstance(translate_spark_error(RuntimeError(f"x {OOT_MARKER} y")), SimulatedOOT)
    e = ValueError("unrelated")
    assert translate_spark_error(e) is e
