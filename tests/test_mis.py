"""Exact MIS tests (the OPT substrate)."""
import itertools

import pytest

from repro.core.budgets import Budget, SimulatedOOT
from repro.core.mis import exact_mis

from tests.helpers import random_graph
from repro.graphs import adjacency as adj_mod


def _brute_mis_size(adj: dict) -> int:
    nodes = sorted(adj)
    best = 0
    for r in range(len(nodes), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(nodes, r):
            cs = set(combo)
            if all(not (adj[u] & cs) for u in combo):
                best = max(best, r)
                break
    return best


def _is_independent(adj, chosen) -> bool:
    return all(not (adj[u] & chosen) for u in chosen)


@pytest.mark.parametrize("seed", range(6))
def test_exact_mis_matches_brute_force(seed):
    e = random_graph(seed, 14, "er")
    adj = {u: set(nb) for u, nb in adj_mod.adj_sets(e).items()}
    got = exact_mis(adj)
    assert _is_independent(adj, got)
    assert len(got) == _brute_mis_size(adj)


def test_exact_mis_empty_graph():
    assert exact_mis({}) == set()


def test_exact_mis_isolated_nodes_all_chosen():
    adj = {1: set(), 2: set(), 3: set()}
    assert exact_mis(adj) == {1, 2, 3}


def test_exact_mis_triangle():
    adj = {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
    assert len(exact_mis(adj)) == 1


def test_exact_mis_path():
    # Path 1-2-3-4-5: MIS = {1,3,5}.
    adj = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3, 5}, 5: {4}}
    assert len(exact_mis(adj)) == 3


def test_exact_mis_string_keys():
    adj = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
    assert exact_mis(adj) == {"a", "c"}


def test_exact_mis_budget_timeout():
    e = random_graph(1, 60, "er")
    adj = {u: set(nb) for u, nb in adj_mod.adj_sets(e).items()}
    with pytest.raises(SimulatedOOT):
        exact_mis(adj, budget=Budget(max_seconds=-1.0))
