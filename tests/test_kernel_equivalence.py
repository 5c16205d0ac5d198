"""Property tests: the bitset kernels and the numpy rank/orient helpers
against the np.intersect1d kernels and loop helpers they replaced
(``tests.helpers.ref_*``). Results must be identical, not just
equivalent: listing order, FindMin's (score, members) and its
``visited`` counter, FindOne's first clique."""
import numpy as np
import pytest

from repro.core import kernels
from repro.core.lp import lp_numpy
from repro.core.prepare import Prepared
from repro.graphs import adjacency as adj_mod
from repro.graphs import generators as gen

from tests import helpers as H

CASES = [(seed, kind) for seed in range(3) for kind in ("pp", "plc", "er")]


def _graph(seed, kind):
    if kind == "er":  # denser than ``random_graph``'s, so it has 5- and 6-cliques
        return gen.erdos_renyi(48, 48 * 8, seed=seed)
    return H.random_graph(seed, 48, kind)


def _orientations(e, k):
    """Degree orientation, score orientation (LP's), and the scores."""
    adj0 = H.ref_orient_by_rank(e, H.ref_rank_by_degree(e))
    scores: dict[int, int] = {}
    for u in adj0:
        H.ref_count_from_source(adj0, u, k, scores)
    nodes = {int(v) for v in e.reshape(-1)}
    adj1 = H.ref_orient_by_rank(e, H.ref_rank_from_scores(scores, nodes))
    return adj0, adj1, scores


def _masks(e, seed):
    """No mask, and two random ones (about 80 % and 50 % of nodes valid)."""
    rng = np.random.default_rng(seed)
    n = int(e.max()) + 1
    return [None, rng.random(n) < 0.8, rng.random(n) < 0.5]


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_count_matches_reference(seed, kind, k):
    e = _graph(seed, kind)
    for adj in _orientations(e, k)[:2]:
        got: dict[int, int] = {}
        want: dict[int, int] = {}
        for u in adj:
            kernels.count_from_source(adj, u, k, got)
            H.ref_count_from_source(adj, u, k, want)
        assert got == want


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_enumeration_order_matches_reference(seed, kind, k):
    e = _graph(seed, kind)
    for adj in _orientations(e, k)[:2]:
        for valid in _masks(e, seed):
            got: list = []
            want: list = []
            for u in adj:
                kernels.enumerate_from_source(adj, u, k, valid, out=got)
                H.ref_enumerate_from_source(adj, u, k, valid, out=want)
            assert got == want


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_find_min_and_visited_match_reference(seed, kind, k):
    e = _graph(seed, kind)
    _, adj, scores = _orientations(e, k)
    for valid in _masks(e, seed):
        for prune in (True, False):
            for u in adj:
                st_got: dict = {}
                st_want: dict = {}
                got = kernels.find_min_clique(adj, scores, u, k, valid, prune, st_got)
                want = H.ref_find_min_clique(adj, scores, u, k, valid, prune, st_want)
                assert got == want
                assert st_got.get("visited", 0) == st_want.get("visited", 0)


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_find_first_matches_reference(seed, kind, k):
    e = _graph(seed, kind)
    adj = _orientations(e, k)[0]
    for valid in _masks(e, seed):
        for u in adj:
            got = kernels.find_first_clique(adj, u, k, valid)
            assert got == H.ref_find_first_clique(adj, u, k, valid)


@pytest.mark.parametrize("seed,kind", CASES)
def test_numpy_rank_and_orient_match_loops(seed, kind):
    e = _graph(seed, kind)
    rank = adj_mod.rank_by_degree(e)
    assert rank == H.ref_rank_by_degree(e)
    rng = np.random.default_rng(seed)
    nodes = {int(v) for v in e.reshape(-1)}
    # Scores with ties, and some nodes left out (they count as 0).
    scores = {v: int(rng.integers(0, 4)) for v in nodes if rng.random() < 0.7}
    by_score = adj_mod.rank_from_scores(scores, nodes)
    assert by_score == H.ref_rank_from_scores(scores, nodes)
    for r in (rank, by_score):
        got = adj_mod.orient_by_rank(e, r)
        want = H.ref_orient_by_rank(e, r)
        assert got.keys() == want.keys()
        for u in want:
            assert got[u].dtype == np.int64
            assert np.array_equal(got[u], want[u])


def test_orient_with_large_ids_matches_loop():
    """Ids too large for ``_group_sorted``'s single int64 sort key take
    its two-key path."""
    e = _graph(0, "pp") + 2**40
    rank = adj_mod.rank_by_degree(e)
    assert rank == H.ref_rank_by_degree(e)
    got, want = adj_mod.orient_by_rank(e, rank), H.ref_orient_by_rank(e, rank)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[u], want[u]) for u in want)


def test_numpy_rank_and_orient_empty():
    e = np.empty((0, 2), dtype=np.int64)
    assert adj_mod.rank_by_degree(e) == {}
    assert adj_mod.rank_from_scores({}, set()) == {}
    assert adj_mod.orient_by_rank(e, {}) == {}


@pytest.mark.parametrize("k", [3, 5])
def test_prepare_matches_the_loop_sequence(k):
    e = _graph(1, "pp")
    adj0, adj1, scores = _orientations(e, k)
    prep = Prepared(e, k)
    assert prep.scores == scores
    for got, want in ((prep.degree_adj, adj0), (prep.adj, adj1)):
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[u], want[u]) for u in want)


def test_lp_visited_counts_every_source(monkeypatch):
    """``visited`` sums FindMin's count over every call, including the
    HeapInit sources that root no clique."""
    e = _graph(2, "plc")
    calls = {"visited": 0, "empty": 0}
    find_min = kernels.find_min_clique

    def counted(adj, scores, source, k, valid=None, prune=True, stats=None):
        st: dict = {}
        got = find_min(adj, scores, source, k, valid, prune, st)
        calls["visited"] += st.get("visited", 0)
        calls["empty"] += got is None and st.get("visited", 0) > 0
        if stats is not None:
            stats["visited"] = stats.get("visited", 0) + st.get("visited", 0)
        return got

    monkeypatch.setattr(kernels, "find_min_clique", counted)
    res = lp_numpy(e, 5)
    assert calls["empty"] > 0, "the graph should have sources that root no clique"
    assert res.visited == calls["visited"]
