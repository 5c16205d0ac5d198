"""Property tests: the C kernels on the oriented table and the numpy
rank/orient helpers against the np.intersect1d kernels and loop helpers
they replaced (``tests.helpers.ref_*``); the C kernels and the C triangle
search against the Python bitset recursions and the numpy wedge check
they replaced (``tests.helpers.py_*``); and those recursions' local
subgraphs against the set-intersection build (``ref_local``).
Results must be identical, not just equivalent: listing order, FindMin's
(score, members) and its ``visited`` counter, FindOne's first clique,
triangle rows in order. The kernels work on dense positions and the
``ref_*`` references on node ids, so results are mapped to ids
(``H.to_ids``, ``H.by_id``) before comparing."""
import numpy as np
import pytest

from repro.core import gc, hg, kernels, lp, opt
from repro.core.clique_listing import count_kcliques, list_kcliques
from repro.core.lp import lp_numpy
from repro.core.prepare import Prepared
from repro.graphs import adjacency as adj_mod
from repro.graphs import datasets
from repro.graphs import generators as gen

from tests import helpers as H

CASES = [(seed, kind) for seed in range(3) for kind in ("pp", "plc", "er")]


def _graph(seed, kind):
    if kind == "er":  # denser than ``random_graph``'s, so it has 5- and 6-cliques
        return gen.erdos_renyi(48, 48 * 8, seed=seed)
    return H.random_graph(seed, 48, kind)


def _table(e, rank):
    """The whole table of ``e`` oriented by a reference ``{id: rank}``
    (k=2 keeps every arc)."""
    nodes, pos, _ = adj_mod.rank_by_degree(e)
    return adj_mod.orient_by_rank(nodes, pos, np.array([rank[v] for v in nodes.tolist()]), 2)


def _keep_clique_arcs(t, k):
    """``t`` without the arcs in no k-clique: its arcs, each as it stands,
    built again at k."""
    arcs = np.column_stack((np.repeat(np.arange(t.n), np.diff(t.ptr)), t.ind)).astype(np.int64)
    return adj_mod.orient_by_rank(t.nodes, arcs, None, k)


def _orientations(e, k):
    """Degree orientation, score orientation (LP's), each as the
    reference dict and as the table, and the id-keyed scores."""
    r0 = H.ref_rank_by_degree(e)
    adj0 = H.ref_orient_by_rank(e, r0)
    scores: dict[int, int] = {}
    for u in adj0:
        H.ref_count_from_source(adj0, u, k, scores)
    r1 = H.ref_rank_from_scores(scores, {int(v) for v in e.reshape(-1)})
    adj1 = H.ref_orient_by_rank(e, r1)
    return (adj0, _table(e, r0)), (adj1, _table(e, r1)), scores


def _masks(e, seed):
    """No mask, and two random ones (about 80 % and 50 % of nodes valid),
    indexed by node id."""
    rng = np.random.default_rng(seed)
    n = int(e.max()) + 1
    return [None, rng.random(n) < 0.8, rng.random(n) < 0.5]


def _at(table, valid):
    """An id-indexed mask as the kernels take it: over dense positions."""
    return None if valid is None else valid[table.nodes]


def _score_array(table, scores):
    """Id-keyed scores as the kernels take them: int64 over positions."""
    return np.array([scores.get(v, 0) for v in table.nodes.tolist()], dtype=np.int64)


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_count_matches_reference(seed, kind, k):
    e = _graph(seed, kind)
    for adj, t in _orientations(e, k)[:2]:
        got = np.zeros(t.n, dtype=np.int64)
        want: dict[int, int] = {}
        for p in range(t.n):
            kernels.count_from_source(t, p, k, got)
            H.ref_count_from_source(adj, int(t.nodes[p]), k, want)
        assert H.by_id(t.nodes, got) == want


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_enumeration_order_matches_reference(seed, kind, k):
    e = _graph(seed, kind)
    for adj, t in _orientations(e, k)[:2]:
        for valid in _masks(e, seed):
            got: list = []
            want: list = []
            for p in range(t.n):
                got += H.runs(kernels.enumerate_from_source(t, p, k, _at(t, valid)), k)
                H.ref_enumerate_from_source(adj, int(t.nodes[p]), k, valid, out=want)
            assert H.to_ids(t.nodes, got) == want


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_list_kcliques_rows_match_tuple_listing(seed, kind, k):
    """GC's and OPT's clique array holds, row for row, the sorted member
    tuples the tuple listing gave: the reference listing over the
    unfiltered degree orientation, sources in ascending id."""
    e = _graph(seed, kind)
    adj = _orientations(e, k)[0][0]
    want: list = []
    for u in sorted(adj):
        H.ref_enumerate_from_source(adj, u, k, out=want)
    prep = Prepared(e, k)
    got = list_kcliques(prep)
    assert got.dtype == np.int32 and got.shape == (len(want), k)
    assert prep.to_ids(got) == want


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_find_min_and_visited_match_reference(seed, kind, k):
    e = _graph(seed, kind)
    _, (adj, t), scores = _orientations(e, k)
    at = _score_array(t, scores)
    for valid in _masks(e, seed):
        for prune in (True, False):
            for p in range(t.n):
                st_want: dict = {}
                visited, got = kernels.find_min_clique(t, at, p, k, _at(t, valid), prune)
                want = H.ref_find_min_clique(adj, scores, int(t.nodes[p]), k, valid, prune, st_want)
                if got is not None:
                    got = (got[0], H.to_ids(t.nodes, [got[1]])[0])
                assert got == want
                assert visited == st_want.get("visited", 0)


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_find_first_matches_reference(seed, kind, k):
    e = _graph(seed, kind)
    adj, t = _orientations(e, k)[0]
    for valid in _masks(e, seed):
        for p in range(t.n):
            got = kernels.find_first_clique(t, p, k, _at(t, valid))
            got = None if got is None else H.to_ids(t.nodes, [got])[0]
            assert got == H.ref_find_first_clique(adj, int(t.nodes[p]), k, valid)


def _on_cand(t, loc):
    """The table's local subgraph cut down to its starting candidates:
    the ``(ids, masks)`` that ``ref_local`` builds over valid nodes only."""
    if loc is None:
        return None
    nb, masks, cand = loc
    keep = [i for i in range(len(masks)) if cand >> i & 1]
    new = {i: j for j, i in enumerate(keep)}
    ids = t.nodes[nb[keep]].tolist()
    return ids, [sum(1 << new[j] for j in new if masks[i] >> j & 1) for i in keep]


def _assert_locals_match(e, valids, needs=(1, 2, 4)):
    """Every source's local subgraph of both orientations, directed and
    undirected, under every mask: the Python oracle's (``py_local``)
    against ``ref_local``; an unmasked one must come back with every
    out-neighbour a candidate."""
    for adj, t in _orientations(e, 4)[:2]:
        for valid in valids:
            for p in range(t.n):
                u = int(t.nodes[p])
                for need in needs:
                    for undirected in (False, True):
                        got = H.py_local(t, p, _at(t, valid), need, undirected)
                        assert _on_cand(t, got) == H.ref_local(adj, u, valid, need, undirected)
                        if got is not None and valid is None:
                            assert got[2] == (1 << len(got[1])) - 1


def _assert_kernels_match_oracle(e, valids, ks=(3, 4, 5)):
    """Every C kernel against its Python oracle on both orientations of
    ``e``, from every source, under every mask: the counts, the listed
    rows in order, FindOne's clique, and FindMin's ``(visited, (score,
    members))``, pruned and not."""
    for k in ks:
        (_, t0), (_, t1), scores = _orientations(e, k)
        at = _score_array(t0, scores)
        for t in (t0, t1):
            got, want = np.zeros(t.n, dtype=np.int64), [0] * t.n
            for p in range(t.n):
                kernels.count_from_source(t, p, k, got)
                H.py_count_from_source(t, p, k, want)
            assert got.tolist() == want
            for valid in valids:
                m = _at(t, valid)
                for p in range(t.n):
                    rows = kernels.enumerate_from_source(t, p, k, m)
                    assert rows.reshape(-1).tolist() == H.py_enumerate_from_source(t, p, k, m)
                    assert kernels.find_first_clique(t, p, k, m) == H.py_find_first_clique(t, p, k, m)
                    for prune in (True, False):
                        assert (kernels.find_min_clique(t, at, p, k, m, prune)
                                == H.py_find_min_clique(t, at, p, k, m, prune))


@pytest.mark.parametrize("seed,kind", CASES)
def test_local_subgraph_matches_reference(seed, kind):
    e = _graph(seed, kind)
    _assert_locals_match(e, _masks(e, seed))


@pytest.mark.parametrize("seed,kind", CASES)
def test_c_kernels_match_python_oracle(seed, kind):
    e = _graph(seed, kind)
    _assert_kernels_match_oracle(e, _masks(e, seed), ks=(3, 4, 5, 6))


def test_local_subgraph_of_empty_graph():
    """No node, and nodes but no arc: every kernel finds nothing."""
    e = np.empty((0, 2), dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    t = adj_mod.orient_by_rank(none, e, none, 2)
    assert (t.n, len(t.ind), t.tri.shape) == (0, 0, (0, 2))
    assert len(t.sources(3)) == 0
    t = adj_mod.orient_by_rank(np.array([7, 9]), e, np.array([0, 1]), 2)  # nodes, but no arc
    assert t.ptr.tolist() == t.tptr.tolist() == [0, 0, 0]
    assert H.py_local(t, 1, None, 1) is None
    counts = np.zeros(2, dtype=np.int64)
    for p in range(2):
        kernels.count_from_source(t, p, 3, counts)
        assert kernels.enumerate_from_source(t, p, 3).shape == (0, 3)
        assert kernels.find_first_clique(t, p, 3, None) is None
        assert kernels.find_min_clique(t, counts, p, 3) == (0, None)
    assert not counts.any()


def _hub(width, seed):
    """Node 0 joined to ``width`` others, about 15 % of whose pairs are
    edges, so the hub has ``width`` out-neighbours."""
    rng = np.random.default_rng(seed)
    hub = [(0, v) for v in range(1, width + 1)]
    among = [(a, b) for a in range(1, width + 1) for b in range(a + 1, width + 1)
             if rng.random() < 0.15]
    return np.array(hub + among, dtype=np.int64)


def test_local_subgraph_wider_than_a_word():
    """Hubs with 90 and 150 out-neighbours: masks and candidates span two
    and three 64-bit words, and the random masks cut bits in each."""
    for width in (90, 150):
        e = _hub(width, 5)
        t = _orientations(e, 4)[0][1]
        assert np.diff(t.ptr).max() >= width
        _assert_locals_match(e, _masks(e, 5))
        _assert_kernels_match_oracle(e, _masks(e, 5), ks=(3, 4))


class _Shifted:
    """An id-indexed mask over ids offset by ``off``, without allocating
    an entry per id below it."""

    def __init__(self, base, off):
        self.base, self.off = base, off

    def __getitem__(self, ids):
        return self.base[np.asarray(ids) - self.off]


def test_local_subgraph_with_ids_near_1e10():
    small = _graph(0, "pp")
    off = 10**10 - 7
    valids = [None] + [_Shifted(m, off) for m in _masks(small, 0)[1:]]
    _assert_locals_match(small + off, valids)
    _assert_kernels_match_oracle(small + off, valids)


def _assert_triangles_match_oracle(t):
    """The table's triangle rows are the numpy wedge check's, in order."""
    tsrc, tri = H.py_triangles(t.ptr, t.ind)
    assert np.array_equal(t.tri, tri)
    assert np.array_equal(np.diff(t.tptr), np.bincount(tsrc, minlength=t.n))


@pytest.mark.parametrize("seed,kind", CASES)
def test_triangle_rows_match_numpy_oracle(seed, kind):
    e = _graph(seed, kind)
    for _, t in _orientations(e, 4)[:2]:
        assert len(t.tri) > 0
        _assert_triangles_match_oracle(t)


def test_triangle_rows_match_numpy_oracle_on_fbp_tables():
    """FBP k=6, unfiltered: the degree table, whose widest source has
    hundreds of out-neighbours, and the score table (the edges between
    nodes of positive score)."""
    prep = Prepared(datasets.edges("FBP"), 6)
    for rank, live in ((prep.degree_rank, None), (prep.rank, prep.scores > 0)):
        t = adj_mod.orient_by_rank(prep.nodes, prep.pos, rank, 2, live)
        assert len(t.tri) > 0
        _assert_triangles_match_oracle(t)
    assert np.diff(adj_mod.orient_by_rank(prep.nodes, prep.pos, prep.degree_rank, 2).ptr).max() > 128


def _assert_table_equal(got, want):
    """Every array of the table, dtype and row order included."""
    for name in ("nodes", "ptr", "ind", "tptr", "tri"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_prepared_matches_oracle(prep):
    """Both of ``Prepared``'s tables against the numpy table builder: the
    degree orientation over every edge, the score orientation over the
    edges between nodes of positive score; and its node scores against
    ``count_from_source`` from every position."""
    e, k = prep.edges, prep.k
    _assert_table_equal(prep.degree_adj, H.py_orient(e, prep.nodes, prep.degree_rank, k))
    _assert_table_equal(prep.adj, H.py_orient(e, prep.nodes, prep.rank, k, prep.scores > 0))
    counts = np.zeros(len(prep.nodes), dtype=np.int64)
    for p in range(len(prep.nodes)):
        kernels.count_from_source(prep.degree_adj, p, k, counts)
    assert prep.scores.dtype == np.int64 and np.array_equal(prep.scores, counts)


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_c_tables_match_numpy_oracle(seed, kind, k):
    _assert_prepared_matches_oracle(Prepared(_graph(seed, kind), k))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_c_tables_match_numpy_oracle_with_ids_near_1e10(k):
    """Ids spread up to 1e10 in shuffled order: the same path as dense ids."""
    e = _graph(1, "plc")
    ids = np.unique(e)
    new = np.sort(np.random.default_rng(k).choice(10**10, size=len(ids), replace=False))
    _assert_prepared_matches_oracle(Prepared(new[np.searchsorted(ids, e)], k))
    _assert_prepared_matches_oracle(Prepared(_graph(0, "pp") + 10**10 - 7, k))


def test_c_tables_match_numpy_oracle_on_fbp():
    """FBP k=6, whose degree table keeps a source with more than 128
    out-neighbours (three mask words) after the filter."""
    prep = Prepared(datasets.edges("FBP"), 6)
    _assert_prepared_matches_oracle(prep)
    assert np.diff(prep.degree_adj.ptr).max() > 128


def test_c_tables_of_empty_graphs_match_numpy_oracle():
    """No node; nodes but no edge; edges but no live node."""
    e = np.empty((0, 2), dtype=np.int64)
    for nodes in (np.empty(0, dtype=np.int64), np.array([7, 9])):
        rank = np.arange(len(nodes))
        for k in (2, 3):
            _assert_table_equal(adj_mod.orient_by_rank(nodes, e, rank, k),
                                H.py_orient(e, nodes, rank, None if k == 2 else k))
    e = _graph(0, "pp")
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    dead = np.zeros(len(nodes), dtype=bool)
    t = adj_mod.orient_by_rank(nodes, pos, rank, 3, dead)
    _assert_table_equal(t, H.py_orient(e, nodes, rank, 3, dead))
    assert len(t.ind) == len(t.tri) == 0 and t.n == len(nodes)


def test_rows_outnumbering_arcs_grow_the_row_buffer():
    """K7 has 35 triangle rows on 21 arcs, and FB k=4 more rows than
    edges: the kept rows outgrow any buffer sized by the edges."""
    k7 = np.array([(a, b) for a in range(7) for b in range(a + 1, 7)], dtype=np.int64)
    for e, k in ((k7, 3), (datasets.edges("FB"), 4)):
        prep = Prepared(e, k)
        assert len(prep.degree_adj.tri) > len(e)
        _assert_table_equal(prep.degree_adj, H.py_orient(e, prep.nodes, prep.degree_rank, k))
    assert len(Prepared(k7, 3).adj.tri) == 35


def test_table_builder_checks_its_arguments(monkeypatch):
    """The C builder reads ``pos``, ``rank`` and ``live`` in place and
    keeps positions in int32: a bad array raises before any pointer
    reaches C, and a failed allocation in C is a MemoryError."""
    e = _graph(0, "pp")
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    live = np.ones(len(nodes), dtype=bool)
    huge = np.broadcast_to(np.int64(0), (2**31,))  # 2^31 nodes, no memory
    with pytest.raises(ValueError, match="int32"):
        adj_mod.orient_by_rank(huge, pos, rank, 3)
    for bad in (pos.reshape(-1), pos[:, :1], pos - 1, pos + len(nodes) - pos.min()):
        with pytest.raises(ValueError):
            adj_mod.orient_by_rank(nodes, bad, rank, 3)
    for args in ((pos.astype(np.int32), rank, live), (np.asfortranarray(pos), rank, live),
                 (pos, rank[:-1], live), (pos, rank.astype(np.int32), live),
                 (pos, rank, live[:-1]), (pos, rank, live.astype(np.int8))):
        with pytest.raises(TypeError):
            adj_mod.orient_by_rank(nodes, args[0], args[1], 3, args[2])
    freed = []

    class Failing:
        def orient(self, *args):
            return -1

        def release(self, buf):
            freed.append(buf)

    monkeypatch.setattr(adj_mod, "lib", Failing())
    with pytest.raises(MemoryError):
        adj_mod.orient_by_rank(nodes, pos, rank, 3)
    assert len(freed) == 1


@pytest.mark.parametrize("seed,kind", CASES)
def test_numpy_rank_and_orient_match_loops(seed, kind):
    e = _graph(seed, kind)
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    ids = nodes.tolist()
    assert ids == sorted({int(v) for v in e.reshape(-1)})
    assert dict(zip(ids, rank.tolist())) == H.ref_rank_by_degree(e)
    rng = np.random.default_rng(seed)
    # Scores with ties, and some nodes left out (they count as 0).
    scores = {v: int(rng.integers(0, 4)) for v in ids if rng.random() < 0.7}
    by_score = adj_mod.rank_from_scores(np.array([scores.get(v, 0) for v in ids]))
    assert dict(zip(ids, by_score.tolist())) == H.ref_rank_from_scores(scores, set(ids))
    for r in (rank, by_score):
        got = H.as_dict(adj_mod.orient_by_rank(nodes, pos, r, 2))
        want = H.ref_orient_by_rank(e, dict(zip(ids, r.tolist())))
        assert got.keys() == want.keys()
        for u in want:
            assert got[u].dtype == np.int64
            assert np.array_equal(got[u], want[u])


def test_orient_with_large_ids_matches_loop():
    """Ids whose pairs overflow an int64 key: the table keys its arcs by
    dense positions."""
    e = _graph(0, "pp") + 2**40
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    ref = H.ref_rank_by_degree(e)
    assert dict(zip(nodes.tolist(), rank.tolist())) == ref
    got = H.as_dict(adj_mod.orient_by_rank(nodes, pos, rank, 2))
    want = H.ref_orient_by_rank(e, ref)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[u], want[u]) for u in want)


def test_rank_with_negative_and_wide_ids_matches_loop():
    e = (_graph(2, "plc") - 30) * 10_000_000_019
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    assert pos.dtype == np.int64 and np.array_equal(nodes[pos], e)
    assert dict(zip(nodes.tolist(), rank.tolist())) == H.ref_rank_by_degree(e)


def test_numpy_rank_and_orient_empty():
    e = np.empty((0, 2), dtype=np.int64)
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    assert len(nodes) == len(rank) == 0
    assert len(adj_mod.rank_from_scores(np.empty(0, dtype=np.int64))) == 0
    assert H.as_dict(adj_mod.orient_by_rank(nodes, pos, rank, 2)) == {}


@pytest.mark.parametrize("k", [3, 5])
def test_prepare_matches_the_loop_sequence(k):
    """Both tables against ``ref_clique_arcs``, triangle rows included:
    the degree table over every edge, the score table over the edges
    between nodes of positive score."""
    e = _graph(1, "pp")
    r0 = H.ref_rank_by_degree(e)
    adj0 = H.ref_orient_by_rank(e, r0)
    scores: dict[int, int] = {}
    for u in adj0:
        H.ref_count_from_source(adj0, u, k, scores)
    r1 = H.ref_rank_from_scores(scores, set(r0))
    live = np.array([scores.get(int(u), 0) > 0 and scores.get(int(v), 0) > 0 for u, v in e])
    prep = Prepared(e, k)
    assert prep.nodes.tolist() == sorted({int(v) for v in e.reshape(-1)})
    assert len(prep.scores) == len(prep.nodes)
    assert H.by_id(prep.nodes, prep.scores.tolist()) == scores
    assert np.array_equal(prep.adj.nodes, prep.nodes)
    assert H.as_rows(prep.degree_adj) == H.ref_clique_arcs(e, r0, k)
    assert H.as_rows(prep.adj) == H.ref_clique_arcs(e[live], r1, k)
    assert len(prep.adj.ind) < len(prep.degree_adj.ind) < len(e), "both filters drop arcs"


def _kernel_results(t, k, scores, valid):
    """Every kernel over every source of ``t`` under ``valid``: the
    count totals, the listing in order, FindOne's cliques, FindMin's
    ``(score, members)`` and its summed ``visited``."""
    counts = np.zeros(t.n, dtype=np.int64)
    listed: list = []
    first, best, visited = [], [], 0
    for p in range(t.n):
        kernels.count_from_source(t, p, k, counts)
        listed += kernels.enumerate_from_source(t, p, k, valid).tolist()
        first.append(kernels.find_first_clique(t, p, k, valid))
        seen, got = kernels.find_min_clique(t, scores, p, k, valid, True)
        best.append(got)
        visited += seen
    return (counts.tolist(), listed, first, best), visited


def _assert_filter_keeps_results(t, k, scores, valids, f=None):
    """``f``, by default ``t`` without the arcs in no k-clique, gives every
    kernel result of ``t``, with no more FindMin ``visited``."""
    if f is None:
        f = _keep_clique_arcs(t, k)
    for valid in valids:
        got, got_visited = _kernel_results(f, k, scores, _at(t, valid))
        want, want_visited = _kernel_results(t, k, scores, _at(t, valid))
        assert got == want
        assert got_visited <= want_visited


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_clique_arc_filter_changes_no_kernel_result(seed, kind, k):
    """On both orientations, under every mask: the filtered table gives
    every kernel's result unchanged, and FindMin visits no more; so does
    ``Prepared``'s score table, which leaves out the nodes of score 0."""
    e = _graph(seed, kind)
    (_, t0), (_, t1), scores = _orientations(e, k)
    at = _score_array(t0, scores)
    for t in (t0, t1):
        _assert_filter_keeps_results(t, k, at, _masks(e, seed))
    _assert_filter_keeps_results(t1, k, at, _masks(e, seed), Prepared(e, k).adj)


def test_clique_arc_filter_keeps_rows_of_dropped_arcs():
    """A 4-clique {0..3} with a pendant 4, k=4: the arcs among the
    non-root members lie in no 4-clique rooted at their own source and
    are dropped, but the root's triangle rows through them stay. Built
    again from the kept arcs, the table would lose the clique."""
    e = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)], dtype=np.int64)
    nodes, pos, _ = adj_mod.rank_by_degree(e)
    t = adj_mod.orient_by_rank(nodes, pos, np.arange(len(nodes)), 2)  # rank by id: 3 roots it
    f = adj_mod.orient_by_rank(nodes, pos, np.arange(len(nodes)), 4)
    assert H.as_rows(f) == {3: ([0, 1, 2], [(1, 0), (2, 0), (2, 1)])}
    rebuilt = _keep_clique_arcs(f, 2)  # the kept arcs alone
    assert H.runs(kernels.enumerate_from_source(f, 3, 4), 4) == [(0, 1, 2, 3)]
    assert len(kernels.enumerate_from_source(rebuilt, 3, 4)) == 0
    _assert_filter_keeps_results(t, 4, np.array([1, 1, 1, 1, 0]),
                                 [None, np.array([1, 1, 1, 1, 0], bool)])


def test_clique_arc_filter_on_empty_tables():
    none = np.empty(0, dtype=np.int64)
    e = np.empty((0, 2), dtype=np.int64)
    for nodes in (none, np.array([7, 9])):  # no node; nodes, but no arc
        f = adj_mod.orient_by_rank(nodes, e, np.arange(len(nodes)), 3)
        assert f.ptr.tolist() == f.tptr.tolist() == [0] * (len(nodes) + 1)
        assert (len(f.ind), f.tri.shape, len(f.sources(3))) == (0, (0, 2), 0)


@pytest.mark.parametrize("k", [1, 2])
def test_clique_arc_filter_keeps_every_arc_for_k_at_most_2(k):
    e = _graph(0, "plc")
    nodes, pos, rank = adj_mod.rank_by_degree(e)
    t = H.py_orient(e, nodes, rank)
    f = adj_mod.orient_by_rank(nodes, pos, rank, k)
    for name in ("nodes", "ptr", "ind", "tptr", "tri"):
        assert np.array_equal(getattr(f, name), getattr(t, name)), name


def test_triangle_free_graph_keeps_no_arc_at_k3():
    """A 6x6 grid has no triangle: at k=3 both tables are empty, every
    score is 0, and HG, L, LP, GC and OPT return an empty S."""
    e = np.array([(6 * r + c, 6 * r + c + 1) for r in range(6) for c in range(5)]
                 + [(6 * r + c, 6 * r + c + 6) for r in range(5) for c in range(6)],
                 dtype=np.int64)
    prep = Prepared(e, 3)
    assert len(prep.degree_adj.ind) == len(prep.adj.ind) == 0
    assert not prep.scores.any() and len(prep.scores) == 36
    assert count_kcliques(prep) == 0
    for res in (hg.solve(prep), lp.solve(prep), lp.solve(prep, False), gc.solve(prep),
                opt.solve(prep)):
        assert res.S == []


def test_lp_visited_counts_every_source(monkeypatch):
    """``visited`` sums FindMin's count over every call, including the
    HeapInit sources that root no clique."""
    e = _graph(2, "plc")
    calls = {"visited": 0, "empty": 0}
    find_min = kernels.find_min_clique

    def counted(adj, scores, source, k, valid=None, prune=True):
        visited, got = find_min(adj, scores, source, k, valid, prune)
        calls["visited"] += visited
        calls["empty"] += got is None and visited > 0
        return visited, got

    monkeypatch.setattr(kernels, "find_min_clique", counted)
    res = lp_numpy(e, 5)
    assert calls["empty"] > 0, "the graph should have sources that root no clique"
    assert res.visited == calls["visited"]


@pytest.mark.parametrize("seed,kind", CASES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_hg_loop_skips_only_nodes_that_root_no_clique(monkeypatch, seed, kind, k):
    """HG's loop calls FindOne only on nodes with at least k-1
    out-neighbours, yet gives the S and ``n_inspected`` of the loop that
    calls it on every still-valid node."""
    prep = Prepared(_graph(seed, kind), k)
    adj, order = prep.degree_adj, np.argsort(prep.degree_rank)
    valid = np.ones(adj.n, dtype=bool)
    want, inspected = [], 0
    for u in order.tolist():
        if valid[u]:
            inspected += 1
            clique = kernels.find_first_clique(adj, u, k, valid)
            if clique is not None:
                want.append(clique)
                valid[list(clique)] = False
    sources = set(adj.sources(k).tolist())
    called = []
    find_first = kernels.find_first_clique
    monkeypatch.setattr(kernels, "find_first_clique",
                        lambda adj, u, *a: called.append(u) or find_first(adj, u, *a))
    got = hg.hg_driver_from_oriented(adj, order, k)
    assert (got.S, got.n_inspected) == (want, inspected)
    assert set(called) <= sources
