"""HG / GC / L / LP driver-path tests: validity, maximality,
Theorem 3 (k-approximation), Theorem 4 (GC == L == LP), and the
paper's own running example."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gc as gc_mod
from repro.core import validate
from repro.core.gc import gc_numpy, greedy_by_score
from repro.core.hg import hg_numpy
from repro.core.lp import lp_numpy
from repro.core.prepare import Prepared

from tests.helpers import paper_fig2_edges, random_graph, to_ids

GRAPHS = [(s, kind) for s in range(4) for kind in ("pp", "plc")]


@pytest.mark.parametrize("seed,kind", GRAPHS)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_hg_valid_and_maximal(seed, kind, k):
    e = random_graph(seed, 40, kind)
    res = hg_numpy(e, k)
    validate.assert_valid_solution(e, k, res.S)
    assert validate.is_maximal(e, k, res.S)


@pytest.mark.parametrize("seed,kind", GRAPHS)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_gc_valid_and_maximal(seed, kind, k):
    e = random_graph(seed, 40, kind)
    res = gc_numpy(e, k)
    validate.assert_valid_solution(e, k, res.S)
    assert validate.is_maximal(e, k, res.S)


@pytest.mark.parametrize("seed,kind", GRAPHS)
@pytest.mark.parametrize("k", [3, 4])
def test_theorem4_gc_equals_l_equals_lp(seed, kind, k):
    """With the fixed total clique order, Algorithm 2 and Algorithm 3
    (with or without pruning) produce the identical S — stronger than
    the paper's implementation, which relaxes tie-breaking."""
    e = random_graph(seed, 40, kind)
    g = gc_numpy(e, k)
    l_ = lp_numpy(e, k, prune=False)
    lp_ = lp_numpy(e, k, prune=True)
    assert sorted(g.S) == sorted(l_.S) == sorted(lp_.S)


@pytest.mark.parametrize("seed,kind", GRAPHS[:4])
@pytest.mark.parametrize("k", [3, 4])
def test_theorem3_k_approximation(seed, kind, k):
    """Any maximal S satisfies k * |S| >= |OPT| (Theorem 3)."""
    e = random_graph(seed, 24, kind)
    opt_size = validate.brute_force_max_disjoint(e, k)
    for res in (hg_numpy(e, k), gc_numpy(e, k), lp_numpy(e, k)):
        assert k * res.size >= opt_size


@pytest.mark.parametrize("k", [3, 4, 5])
def test_deterministic_across_runs(k):
    e = random_graph(1, 50, "plc")
    assert lp_numpy(e, k).S == lp_numpy(e, k).S
    assert gc_numpy(e, k).S == gc_numpy(e, k).S
    assert hg_numpy(e, k).S == hg_numpy(e, k).S


def test_fig2_gc_finds_maximum():
    """On the paper's running example the score-ordered greedy reaches
    the maximum (3 disjoint triangles)."""
    e = paper_fig2_edges()
    assert validate.brute_force_max_disjoint(e, 3) == 3
    g = gc_numpy(e, 3)
    assert g.size == 3
    assert set(g.S) == {(1, 3, 6), (2, 4, 9), (5, 7, 8)}
    assert sorted(lp_numpy(e, 3).S) == sorted(g.S)


def test_fig2_example2_first_found_is_selection_dependent():
    """Example 2 runs Algorithm 1 with the identity ordering. The
    paper's trace scans out-neighbourhoods in descending id and stops
    at the size-2 maximal set {(3,5,6), (7,8,9)}; our FindOne scans
    ascending id and happens to reach size 3. Both are valid
    executions — the point of the example is exactly that first-found
    selection is fragile, which motivates the score ordering."""
    import numpy as np

    from repro.core.hg import hg_driver_from_oriented
    from repro.graphs import adjacency as adj_mod

    e = paper_fig2_edges()
    nodes, by_id = np.arange(1, 10, dtype=np.int64), np.arange(9)  # position v-1 is node v
    adj = adj_mod.orient_by_rank(nodes, e - 1, by_id, 2)
    S = to_ids(nodes, hg_driver_from_oriented(adj, by_id, 3).S)
    validate.assert_valid_solution(e, 3, S)
    assert validate.is_maximal(e, 3, S)
    # The paper's size-2 trace is a maximal set too: selection order,
    # not correctness, separates the two outcomes.
    paper_trace = [(3, 5, 6), (7, 8, 9)]
    validate.assert_valid_solution(e, 3, paper_trace)
    assert validate.is_maximal(e, 3, paper_trace)


def test_fig2_clique_count():
    assert gc_numpy(paper_fig2_edges(), 3).n_cliques == 7


def test_greedy_by_score_tie_break_is_member_tuple():
    scored = [(5, (4, 5, 6)), (5, (1, 2, 3)), (5, (2, 3, 4))]
    # (1,2,3) first (tie on score, smaller tuple), then (4,5,6).
    assert greedy_by_score(scored) == [(1, 2, 3), (4, 5, 6)]


def test_greedy_by_score_prefers_low_score():
    scored = [(9, (1, 2, 3)), (1, (3, 4, 5))]
    assert greedy_by_score(scored) == [(3, 4, 5)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 24), k=st.integers(1, 5),
       n_rows=st.integers(0, 60), top=st.integers(0, 3))
def test_greedy_select_equals_greedy_on_random_rows(seed, n_nodes, k, n_rows, top):
    """GC's C scan keeps exactly the rows the sequential greedy keeps, on
    random distinct k-sets with scores in 0..top (so many ties, broken on
    the member tuple), stored shuffled and reached through the order
    that ranks them."""
    rng = np.random.default_rng(seed)
    k = min(k, n_nodes)
    rows = sorted({tuple(sorted(rng.choice(n_nodes, k, replace=False).tolist()))
                   for _ in range(n_rows)})
    scored = sorted((int(rng.integers(0, top + 1)), r) for r in rows)
    ranked = np.array([r for _, r in scored], dtype=np.int32).reshape(-1, k)
    order = rng.permutation(len(ranked))
    cliques = np.empty_like(ranked)
    cliques[order] = ranked  # row order[x] of cliques is the x-th in greedy order
    picked = gc_mod.greedy_select(cliques, order, n_nodes)
    assert [tuple(r) for r in cliques[order[picked]].tolist()] == greedy_by_score(scored)


def test_greedy_select_checks_its_arrays():
    """The C scan reads ``cliques`` and ``order`` in place, so a wrong
    dtype, a non-contiguous array, or one shorter than the other raises
    before the scan runs."""
    cliques = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int32)
    order = np.arange(3)
    assert gc_mod.greedy_select(cliques, order, 4).tolist() == [True, False, True]
    for bad_cliques, bad_order in ((cliques.astype(np.int64), order), (cliques, order.astype(np.int32)),
                                   (np.asfortranarray(cliques), order), (cliques, np.arange(6)[::2]),
                                   (cliques[:2], order), (cliques, order[:2])):
        with pytest.raises(TypeError):
            gc_mod.greedy_select(bad_cliques, bad_order, 4)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 31), k=st.integers(1, 6),
       n_rows=st.integers(0, 40), s_bits=st.integers(0, 40))
def test_greedy_order_is_score_then_member_tuple(seed, bits, k, n_rows, s_bits):
    """The packed sort key orders rows as ``sorted`` orders
    ``(s_c, member tuple)``, at any position and score width (up to
    several int64 words), ties on score included."""
    rng = np.random.default_rng(seed)
    n_nodes = 1 << bits
    rows = np.sort(rng.integers(0, n_nodes, (n_rows, k)), axis=1).astype(np.int32)
    s_c = rng.integers(0, 1 << s_bits, n_rows) // 4
    order = gc_mod.greedy_order(s_c, rows, n_nodes)
    keys = [(int(s), tuple(r)) for s, r in zip(s_c, rows.tolist())]
    assert [keys[i] for i in order] == sorted(keys)


def _blocks(n_blocks, size, bridges, seed):
    """``n_blocks`` disjoint cliques of ``size`` nodes (every k-clique of
    a block has the same score), joined by ``bridges`` random edges."""
    rng = np.random.default_rng(seed)
    e = {(b * size + i, b * size + j) for b in range(n_blocks)
         for i in range(size) for j in range(i + 1, size)}
    while bridges:
        u, v = sorted(rng.choice(n_blocks * size, 2, replace=False).tolist())
        if u // size != v // size and (u, v) not in e:
            e.add((u, v))
            bridges -= 1
    return np.array(sorted(e), dtype=np.int64)


def _relabelled(e, seed, lo=0):
    """``e`` with its node ids shuffled into ids from ``lo`` on."""
    rng = np.random.default_rng(seed)
    nodes = np.unique(e)
    new = lo + rng.permutation(3 * len(nodes))[:len(nodes)]
    f = new[np.searchsorted(nodes, e)]
    return np.unique(np.sort(f, axis=1), axis=0)


GREEDY_CASES = {
    "blocks": (_blocks(4, 6, 0, 0), (3, 4, 5)),
    "blocks_bridged": (_blocks(5, 5, 12, 1), (3, 4)),
    "blocks_shuffled": (_relabelled(_blocks(4, 6, 6, 2), 2), (3, 4)),
    "bowtie_11_digit": (np.array([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
                                 dtype=np.int64) + 9_999_999_998, (3,)),
    "pp_shuffled": (_relabelled(random_graph(3, 60, "pp"), 3, 10**10), (3, 4, 5)),
    "plc_shuffled": (_relabelled(random_graph(4, 60, "plc"), 4), (3, 4)),
    "no_clique": (np.array([(0, 1), (1, 2), (2, 3)], dtype=np.int64), (3, 4)),
    "one_clique": (np.array([(5, 7), (5, 9), (7, 9), (9, 11)], dtype=np.int64), (3,)),
}


@pytest.mark.parametrize("case", list(GREEDY_CASES))
def test_gc_rounds_equal_sequential_greedy(case):
    """GC's S equals ``greedy_by_score`` over every k-clique (by brute
    force) scored from the node scores, on inputs full of equal clique
    scores and on shuffled labels."""
    e, ks = GREEDY_CASES[case]
    for k in ks:
        prep = Prepared(e, k)
        score = dict(zip(prep.nodes.tolist(), prep.scores.tolist()))
        cliques = validate.brute_force_all_kcliques(e, k)
        res = gc_mod.solve(prep)
        assert res.S == greedy_by_score([(sum(score[v] for v in c), c) for c in cliques])
        assert res.n_cliques == len(cliques)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_empty_graph_and_no_cliques(k):
    import numpy as np

    e = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)  # path: no k-clique
    for res in (hg_numpy(e, k), gc_numpy(e, k), lp_numpy(e, k)):
        assert res.S == []


def test_single_clique_graph():
    import numpy as np

    e = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    for res in (hg_numpy(e, 3), gc_numpy(e, 3), lp_numpy(e, 3)):
        assert res.S == [(0, 1, 2)]


@pytest.mark.parametrize("seed", range(3))
def test_gc_never_smaller_than_hg_on_dense_blocks(seed):
    """The paper's headline: score ordering beats degree-ordered
    first-fit on community-structured graphs (Table II shows positive
    deltas on every real dataset). We assert it on the planted
    partition family where the effect is structural."""
    e = random_graph(seed, 60, "pp")
    assert gc_numpy(e, 3).size >= hg_numpy(e, 3).size


def test_lp_stats_populated():
    e = random_graph(2, 50, "plc")
    res = lp_numpy(e, 3)
    assert res.n_heap_init > 0
    assert res.visited > 0
    assert res.size > 0
