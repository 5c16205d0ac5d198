"""Theorem 2 (clique-degree bounds from clique scores) and related
score properties — including hypothesis property tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels, validate
from repro.core.clique_graph import clique_graph
from repro.core.clique_listing import list_kcliques
from repro.core.prepare import Prepared
from repro.graphs import adjacency as adj_mod
from repro.graphs import generators as gen

from tests.helpers import paper_fig2_edges, random_graph


def _scores_and_cliques(e, k):
    rank = adj_mod.rank_by_degree(e)
    adj = adj_mod.orient_by_rank(e, rank)
    scores: dict[int, int] = {}
    cliques: list[tuple[int, ...]] = []
    for u in range(adj.n):
        kernels.count_from_source(adj, u, k, scores)
        kernels.enumerate_from_source(adj, u, k, out=cliques)
    return scores, cliques


def _clique_degrees_brute(cliques):
    deg = {c: 0 for c in cliques}
    for i, a in enumerate(cliques):
        sa = set(a)
        for b in cliques[i + 1:]:
            if sa & set(b):
                deg[a] += 1
                deg[b] += 1
    return deg


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4])
def test_theorem2_bounds(seed, k):
    """(s_c(C) - k) / (k - 1) <= deg_GC(C) <= s_c(C) - k."""
    e = random_graph(seed, 32)
    scores, cliques = _scores_and_cliques(e, k)
    degs = _clique_degrees_brute(cliques)
    for c in cliques:
        s_c = sum(scores[v] for v in c)
        assert (s_c - k) / (k - 1) <= degs[c] <= s_c - k


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["pp", "plc"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_clique_graph_equals_definition(seed, kind, k):
    """Def. 2: the driver clique graph joins exactly the k-cliques that
    share a node, and keeps its vertices in the order given."""
    e = random_graph(seed, 30, kind)
    cliques = sorted(validate.brute_force_all_kcliques(e, k))
    want = {c: {d for d in cliques if d != c and set(c) & set(d)} for c in cliques}
    got = clique_graph(sorted(list_kcliques(Prepared(e, k))))
    assert got == want
    assert list(got) == cliques


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(3, 5))
def test_theorem2_bounds_hypothesis(seed, k):
    e = gen.erdos_renyi(18, 60, seed=seed)
    if len(e) == 0:
        return
    scores, cliques = _scores_and_cliques(e, k)
    degs = _clique_degrees_brute(cliques)
    for c in cliques:
        s_c = sum(scores[v] for v in c)
        assert (s_c - k) / (k - 1) <= degs[c] <= s_c - k


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lemma1_neighbors_contain_edge_hypothesis(seed):
    """Lemma 1: a clique with >= k+1 clique-graph neighbours has two
    neighbours that are themselves adjacent in the clique graph."""
    k = 3
    e = gen.erdos_renyi(14, 40, seed=seed)
    if len(e) == 0:
        return
    _, cliques = _scores_and_cliques(e, k)
    for c in cliques:
        nbrs = [b for b in cliques if b != c and set(b) & set(c)]
        if len(nbrs) >= k + 1:
            assert any(
                set(a) & set(b)
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1:]
            )


def test_fig2_clique_scores_match_example3():
    """Example 3: s_c(C3) = s_n(v5) + s_n(v6) + s_n(v8) = 9 and
    deg_GC(C1) = 2."""
    e = paper_fig2_edges()
    scores, cliques = _scores_and_cliques(e, 3)
    assert scores[5] + scores[6] + scores[8] == 9
    degs = _clique_degrees_brute(cliques)
    assert degs[(1, 3, 6)] == 2  # C1 touches C2 and C3


def test_node_scores_sum_is_k_times_clique_count():
    e = random_graph(5, 40, "plc")
    for k in (3, 4):
        scores, cliques = _scores_and_cliques(e, k)
        assert sum(scores.values()) == k * len(cliques)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_maximality_oracle_agrees_with_bruteforce_hypothesis(seed):
    """A solution is maximal iff no leftover k-clique exists — cross
    check the oracle against direct residual enumeration."""
    k = 3
    e = gen.erdos_renyi(16, 45, seed=seed)
    if len(e) == 0:
        return
    from repro.core.lp import lp_numpy

    S = lp_numpy(e, k).S
    free = validate.free_nodes(e, S)
    adj = adj_mod.adj_sets(e)
    residual = validate.cliques_in_subset(adj, free, k)
    assert validate.is_maximal(e, k, S) == (len(residual) == 0)
    assert validate.is_maximal(e, k, S)
