"""Kernel tests: enumeration, counting, first/min clique search —
all checked against brute-force ground truth on small graphs. The
kernels take and return dense positions; ground truth is in node ids."""
import numpy as np
import pytest

from repro.core import kernels, validate
from repro.core.clique_listing import count_kcliques, list_kcliques
from repro.core.prepare import Prepared
from repro.graphs import adjacency as adj_mod

from tests.helpers import by_id, paper_fig2_edges, random_graph, runs, to_ids


def _oriented(e, by_degree=True):
    """The degree orientation of ``e``, or with ``by_degree`` false the
    id orientation."""
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    return adj_mod.orient_by_rank(nodes, pos, rank if by_degree else np.arange(len(nodes)), 2)


def _all_listed(adj, k):
    """Every k-clique as its node-id tuple, in listing order."""
    out = []
    for u in range(adj.n):
        out += runs(kernels.enumerate_from_source(adj, u, k), k)
    return to_ids(adj.nodes, out)


def _counts(adj, k):
    """Node scores by position."""
    counts = np.zeros(adj.n, dtype=np.int64)
    for u in range(adj.n):
        kernels.count_from_source(adj, u, k, counts)
    return counts


def _score_oriented(e, k):
    """LP's score orientation of ``e`` and its node scores by position."""
    adj0 = _oriented(e)
    scores = _counts(adj0, k)
    nodes, pos, _ = adj_mod.rank_by_degree(e)
    return adj_mod.orient_by_rank(nodes, pos, adj_mod.rank_from_scores(scores), 2), scores


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("kind", ["pp", "plc", "er"])
def test_enumeration_matches_brute_force(seed, k, kind):
    e = random_graph(seed, 36, kind)
    listed = _all_listed(_oriented(e), k)
    assert len(listed) == len(set(listed)), "each clique exactly once"
    assert set(listed) == validate.brute_force_all_kcliques(e, k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_enumeration_invariant_to_ordering(k):
    e = random_graph(9, 40, "pp")
    by_deg = set(_all_listed(_oriented(e), k))
    by_ids = set(_all_listed(_oriented(e, by_degree=False), k))
    assert by_deg == by_ids


def test_enumeration_fig2_lists_seven_triangles():
    got = set(_all_listed(_oriented(paper_fig2_edges()), 3))
    want = {
        (1, 3, 6), (3, 5, 6), (5, 6, 8), (5, 7, 8),
        (7, 8, 9), (4, 7, 9), (2, 4, 9),
    }
    assert got == want


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4])
def test_count_matches_enumeration(seed, k):
    e = random_graph(seed, 40)
    adj = _oriented(e)
    counts = by_id(adj.nodes, _counts(adj, k))
    listed = _all_listed(adj, k)
    want: dict[int, int] = {}
    for c in listed:
        for v in c:
            want[v] = want.get(v, 0) + 1
    assert counts == want


def test_count_fig2_matches_example3():
    """Example 3: s_n(v6) = s_n(v5) = s_n(v8) = 3."""
    adj = _oriented(paper_fig2_edges())
    counts = by_id(adj.nodes, _counts(adj, 3))
    assert counts[6] == 3 and counts[5] == 3 and counts[8] == 3
    assert counts[1] == 1 and counts[2] == 1


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4])
def test_find_first_returns_a_real_clique(seed, k):
    e = random_graph(seed, 40)
    adj = _oriented(e)
    sets_ = adj_mod.adj_sets(e)
    found_any = False
    for u in range(adj.n):
        got = kernels.find_first_clique(adj, u, k, None)
        if got is not None:
            found_any = True
            assert u in got and len(got) == k
            assert validate.is_clique(sets_, to_ids(adj.nodes, [got])[0])
    assert found_any


def test_find_first_respects_valid_mask():
    e = paper_fig2_edges()
    adj = _oriented(e, by_degree=False)
    valid = np.ones(adj.n, dtype=bool)
    v6 = int(np.searchsorted(adj.nodes, 6))
    got = kernels.find_first_clique(adj, v6, 3, valid)
    assert got is not None
    valid[list(got)] = False
    again = kernels.find_first_clique(adj, v6, 3, valid)
    assert again is None, "v6 itself is invalid-free but members are masked"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("prune", [True, False])
def test_find_min_is_exact_minimum(seed, k, prune):
    """FindMin == min over the exhaustive per-source clique list under
    the fixed total order (score, members)."""
    e = random_graph(seed, 36)
    adj, scores = _score_oriented(e, k)
    for u in range(adj.n):
        exhaustive = runs(kernels.enumerate_from_source(adj, u, k), k)
        want = min(
            ((sum(scores[v] for v in c), c) for c in exhaustive),
            default=None,
        )
        _, got = kernels.find_min_clique(adj, scores, u, k, prune=prune)
        assert got == want


def test_find_min_pruning_reduces_visits():
    e = random_graph(3, 60, "plc")
    adj, scores = _score_oriented(e, 4)
    visited = {True: 0, False: 0}
    for prune in (True, False):
        for u in range(adj.n):
            visited[prune] += kernels.find_min_clique(adj, scores, u, 4, prune=prune)[0]
    assert visited[True] <= visited[False]
    assert visited[False] > 0


@pytest.mark.parametrize("seed", range(3))
def test_cliques_in_subset_matches_enumeration(seed):
    e = random_graph(seed, 30)
    sets_ = adj_mod.adj_sets(e)
    allnodes = {int(v) for v in e.reshape(-1)}
    for k in (3, 4):
        got = kernels.cliques_in_subset(sets_, allnodes, k)
        assert got == validate.cliques_in_subset(sets_, allnodes, k)
        assert set(got) == set(_all_listed(_oriented(e), k))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["pp", "plc"])
def test_cliques_in_subset_matches_reference(seed, kind):
    """The bitset listing equals the set-recursion reference, order
    included, on random ``allowed`` sets and 0-2 ``containing`` nodes
    (adjacent or not, inside ``allowed`` or not); ``first`` returns its
    head."""
    e = random_graph(seed, 30, kind)
    sets_ = adj_mod.adj_sets(e)
    nodes = sorted(sets_)
    rng = np.random.default_rng(seed)
    for k in range(2, 7):
        for _ in range(12):
            allowed = {v for v in nodes if rng.random() < rng.uniform(0.3, 1.0)}
            n_fix = int(rng.integers(0, 3))
            if n_fix == 2 and rng.random() < 0.5:
                u = int(rng.choice(nodes))  # an edge, so the pair is a clique
                containing = (u, int(rng.choice(sorted(sets_[u]))))
            else:
                containing = tuple(int(v) for v in rng.choice(nodes, n_fix, replace=False))
            want = validate.cliques_in_subset(sets_, allowed, k, containing)
            assert kernels.cliques_in_subset(sets_, allowed, k, containing) == want
            assert kernels.cliques_in_subset(sets_, allowed, k, containing, first=True) == want[:1]


def test_cliques_in_subset_containing_constraint():
    e = paper_fig2_edges()
    sets_ = adj_mod.adj_sets(e)
    allnodes = set(range(1, 10))
    got = set(kernels.cliques_in_subset(sets_, allnodes, 3, containing=(5,)))
    assert got == {(3, 5, 6), (5, 6, 8), (5, 7, 8)}
    got2 = set(kernels.cliques_in_subset(sets_, allnodes, 3, containing=(5, 6)))
    assert got2 == {(3, 5, 6), (5, 6, 8)}


def test_cliques_in_subset_respects_allowed_set():
    e = paper_fig2_edges()
    sets_ = adj_mod.adj_sets(e)
    got = set(kernels.cliques_in_subset(sets_, {5, 6, 8, 7}, 3))
    assert got == {(5, 6, 8), (5, 7, 8)}


def test_cliques_in_subset_limit():
    """``first`` stops at the lexicographically first clique, C1."""
    e = paper_fig2_edges()
    sets_ = adj_mod.adj_sets(e)
    assert kernels.cliques_in_subset(sets_, set(range(1, 10)), 3, first=True) == [(1, 3, 6)]
    assert kernels.cliques_in_subset(sets_, {2, 4, 5}, 3, first=True) == []


def test_cliques_in_subset_containing_non_clique_prefix():
    e = paper_fig2_edges()
    sets_ = adj_mod.adj_sets(e)
    # (1, 2) is not an edge: no clique can contain both.
    assert kernels.cliques_in_subset(sets_, set(range(1, 10)), 3, containing=(1, 2)) == []


def test_kernels_check_their_arguments():
    """The C kernels read and write the arrays they get in place, so a
    source that is not a position, an array of the wrong dtype or length,
    or a listing array with too few rows raises before C runs past it."""
    adj = _oriented(random_graph(0, 36))
    counts = np.zeros(adj.n, dtype=np.int64)
    u = next(p for p in range(adj.n) if len(kernels.enumerate_from_source(adj, p, 3)) > 1)
    for source in (-1, adj.n):
        with pytest.raises(IndexError):
            kernels.count_from_source(adj, source, 3, counts)
    for bad in ([0] * adj.n, counts[:-1], counts.astype(np.int32), counts[::2]):
        with pytest.raises(TypeError):
            kernels.count_from_source(adj, u, 3, bad)
    with pytest.raises(TypeError):
        kernels.find_first_clique(adj, u, 3, np.ones(adj.n, dtype=np.int8))
    with pytest.raises(TypeError):
        kernels.find_min_clique(adj, counts.astype(np.int32), u, 3)
    rows = kernels.enumerate_from_source(adj, u, 3)
    with pytest.raises(ValueError):
        kernels.enumerate_from_source(adj, u, 3, out=np.empty((len(rows), 4), dtype=np.int32))
    with pytest.raises(ValueError):
        kernels.enumerate_from_source(adj, u, 3, out=np.empty((len(rows) - 1, 3), dtype=np.int32))
    assert not counts.any(), "no kernel wrote before raising"


def test_counting_and_listing_check_each_other():
    """The clique count is Σ s_n / k, and GC's listing fills exactly that
    many rows; a score sum that is not a multiple of k, or one that counts
    more or fewer cliques than the listing finds, raises (a real check,
    which ``python -O`` keeps)."""
    prep = Prepared(random_graph(0, 36), 4)
    n, scores = count_kcliques(prep), prep.scores.copy()
    assert n > 0 and len(list_kcliques(prep)) == n
    for shift, error in ((1, RuntimeError), (4, RuntimeError), (-4, ValueError)):
        prep.scores = scores.copy()
        prep.scores[np.flatnonzero(scores)[0]] += shift
        if shift % 4:
            with pytest.raises(RuntimeError, match="not a multiple"):
                count_kcliques(prep)
        with pytest.raises(error):
            list_kcliques(prep)
