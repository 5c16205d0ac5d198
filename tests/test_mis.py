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

from tests.helpers import TripBudget, random_graph, ref_exact_mis
from repro.graphs import adjacency as adj_mod


def _cliques(e, k):
    """Every k-clique of ``e`` as its node-id tuple."""
    prep = Prepared(e, k)
    return prep.to_ids(list_kcliques(prep))


def _masks(adj: dict) -> list[int]:
    """``adj`` as neighbour masks, vertex ``i`` being its ``i``-th key."""
    index = {u: i for i, u in enumerate(adj)}
    return [sum(1 << index[w] for w in adj[u]) for u in adj]


def _keyed(nbr: list[int]) -> dict:
    """The graph of ``nbr`` as the reference solver's input, keyed 0..n-1."""
    return {i: {j for j in range(len(nbr)) if m >> j & 1} for i, m in enumerate(nbr)}


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


def _is_independent(nbr, chosen) -> bool:
    return all(not nbr[u] >> v & 1 for u in chosen for v in chosen)


@pytest.mark.parametrize("seed", range(6))
def test_exact_mis_matches_brute_force(seed):
    e = random_graph(seed, 14, "er")
    nbr = _masks(adj_mod.adj_sets(e))
    got = exact_mis(nbr)
    assert _is_independent(nbr, got)
    assert len(got) == _brute_mis_size(_keyed(nbr))


def test_exact_mis_empty_graph():
    assert exact_mis([]) == []


def test_exact_mis_isolated_nodes_all_chosen():
    assert exact_mis([0, 0, 0]) == [0, 1, 2]


def test_exact_mis_triangle():
    assert len(exact_mis([0b110, 0b101, 0b011])) == 1


def test_exact_mis_path():
    # Path 0-1-2-3-4: MIS = {0, 2, 4}.
    assert exact_mis([0b10, 0b101, 0b1010, 0b10100, 0b1000]) == [0, 2, 4]


def test_exact_mis_budget_timeout():
    e = random_graph(1, 60, "er")
    with pytest.raises(SimulatedOOT):
        exact_mis(_masks(adj_mod.adj_sets(e)), budget=Budget(max_seconds=-1.0))


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


def _assert_equals_reference(nbr: list[int]) -> None:
    assert exact_mis(nbr) == sorted(ref_exact_mis(_keyed(nbr)))


@pytest.mark.parametrize("seed", range(60))
def test_exact_mis_equals_reference_shuffled_order(seed):
    # Vertex i is the i-th key inserted, so the numbering is a shuffle
    # of the generator's ids.
    _assert_equals_reference(_masks(_random_adj(seed)))


@pytest.mark.parametrize("seed", range(20))
def test_exact_mis_equals_reference_tuple_keys(seed):
    # Key order (by residue, then descending id) is neither the
    # insertion order nor the id order; vertices follow the insertion.
    _assert_equals_reference(_masks(_random_adj(1000 + seed, key=lambda v: (v % 3, -v))))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["pp", "plc", "er"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_exact_mis_equals_reference_on_clique_graphs(seed, kind, k):
    _assert_equals_reference(clique_graph(sorted(_cliques(random_graph(seed, 20, kind), k))))


def test_exact_mis_budget_trips_deep_in_search():
    cg = clique_graph(sorted(_cliques(random_graph(0, 20, "pp"), 3)))
    counted = TripBudget()
    want = exact_mis(cg, budget=counted)
    assert counted.calls > 100  # one call per search node
    last = TripBudget(trip_at=counted.calls)
    with pytest.raises(SimulatedOOT):
        exact_mis(cg, budget=last)
    assert last.calls == counted.calls
    assert exact_mis(cg, budget=TripBudget(trip_at=counted.calls + 1)) == want


@pytest.mark.parametrize("name,k,size", [("Football", 5, 15), ("Voles", 4, 21)])
def test_exact_mis_finishes_table4_cells(name, k, size):
    """Table IV cells the dict-of-sets solver left OOT under 30 s."""
    e = datasets.edges(name)
    cliques = sorted(_cliques(e, k))
    S = [cliques[i] for i in exact_mis(clique_graph(cliques), Budget(max_seconds=30))]
    assert len(S) == size
    assert all(not set(a) & set(b) for a, b in itertools.combinations(S, 2))
    assert len(S) >= lp_numpy(e, k).size
