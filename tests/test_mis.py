"""Exact MIS tests (the OPT substrate)."""
import itertools
import random

import pytest

from repro.core.budgets import Budget, SimulatedOOT
from repro.core.clique_listing import list_kcliques
from repro.core.clique_graph import clique_graph
from repro.core.lp import lp_numpy
from repro.core.mis import exact_mis
from repro.core.prepare import Prepared
from repro.graphs import datasets

from tests.helpers import random_graph, ref_exact_mis
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


# ---- the bitset solver returns the reference solver's set exactly ----

def _random_adj(seed: int, key=lambda v: v) -> dict:
    """G(n, p) with n <= 40, keyed by ``key(v)`` and inserted in a
    shuffled order, so insertion index and key order disagree."""
    r = random.Random(seed)
    n, p = r.randint(0, 40), r.uniform(0.05, 0.5)
    order = list(range(n))
    r.shuffle(order)
    adj = {key(v): set() for v in order}
    for a, b in itertools.combinations(range(n), 2):
        if r.random() < p:
            adj[key(a)].add(key(b))
            adj[key(b)].add(key(a))
    return adj


@pytest.mark.parametrize("seed", range(60))
def test_exact_mis_equals_reference_shuffled_order(seed):
    adj = _random_adj(seed)
    assert exact_mis(adj) == ref_exact_mis(adj)


@pytest.mark.parametrize("seed", range(20))
def test_exact_mis_equals_reference_tuple_keys(seed):
    # Key order (by residue, then descending id) is neither the
    # insertion order nor the id order.
    adj = _random_adj(1000 + seed, key=lambda v: (v % 3, -v))
    assert exact_mis(adj) == ref_exact_mis(adj)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["pp", "plc", "er"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_exact_mis_equals_reference_on_clique_graphs(seed, kind, k):
    cg = clique_graph(sorted(list_kcliques(Prepared(random_graph(seed, 20, kind), k))))
    assert exact_mis(cg) == ref_exact_mis(cg)


class _TripBudget(Budget):
    """Counts ``check_time`` calls and raises ``SimulatedOOT`` on call
    ``trip_at`` (never when it is None)."""

    def __init__(self, trip_at=None):
        super().__init__()
        self.trip_at, self.calls = trip_at, 0

    def check_time(self) -> None:
        self.calls += 1
        if self.calls == self.trip_at:
            raise SimulatedOOT("tripped")


def test_exact_mis_budget_trips_deep_in_search():
    cg = clique_graph(sorted(list_kcliques(Prepared(random_graph(0, 20, "pp"), 3))))
    counted = _TripBudget()
    want = exact_mis(cg, budget=counted)
    assert counted.calls > 100  # one call per search node
    last = _TripBudget(trip_at=counted.calls)
    with pytest.raises(SimulatedOOT):
        exact_mis(cg, budget=last)
    assert last.calls == counted.calls
    assert exact_mis(cg, budget=_TripBudget(trip_at=counted.calls + 1)) == want


@pytest.mark.parametrize("name,k,size", [("Football", 5, 15), ("Voles", 4, 21)])
def test_exact_mis_finishes_table4_cells(name, k, size):
    """Table IV cells the dict-of-sets solver left OOT under 30 s."""
    e = datasets.edges(name)
    S = exact_mis(clique_graph(sorted(list_kcliques(Prepared(e, k)))), Budget(max_seconds=30))
    assert len(S) == size
    assert all(not set(a) & set(b) for a, b in itertools.combinations(S, 2))
    assert len(S) >= lp_numpy(e, k).size
