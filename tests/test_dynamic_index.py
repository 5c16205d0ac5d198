"""Candidate-clique index tests (Algorithm 5): definition-level
cross-check, the one-call C build against the per-clique rule, the
paper's Fig. 5 example and free-node settling."""
import random

import numpy as np
import pytest

from repro.core import validate
from repro.core.lp import lp_numpy
from repro.dynamic import index as idx_mod
from repro.dynamic import state as st_mod
from repro.dynamic import updates as upd
from repro.graphs import adjacency as adj_mod
from repro.graphs import datasets

from tests.helpers import paper_fig5_g1_edges, random_graph


def _state(e, k, S=None):
    S = lp_numpy(e, k).S if S is None else S
    return st_mod.from_edges(e, k, S)


def _brute_candidates(state):
    """Candidate definition from Section V-A, computed globally: all
    k-cliques with >=1 free node and >=1 non-free node whose non-free
    nodes share one owner clique."""
    allnodes = set(state.adj)
    out: dict = {c: set() for c in state.S}
    for cand in validate.cliques_in_subset(state.adj, allnodes, state.k):
        non_free = [v for v in cand if not state.is_free(v)]
        if not non_free or len(non_free) == state.k:
            continue
        owners = {state.node2c[v] for v in non_free}
        if len(owners) == 1:
            out[next(iter(owners))].add(cand)
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4])
def test_index_matches_global_definition(seed, k):
    e = random_graph(seed, 40)
    st = _state(e, k)
    idx_mod.build_index(st)
    want = _brute_candidates(st)
    for c in st.S:
        assert st.cand[c] == want[c]


def test_fig5_candidates():
    """Fig. 5(a): with S = {(3,4,5), (9,10,11)}, clique (3,4,5) has the
    single candidate (1,2,3) and (9,10,11) has none."""
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    idx_mod.build_index(st)
    assert st.cand[(3, 4, 5)] == {(1, 2, 3)}
    assert st.cand[(9, 10, 11)] == set()
    assert idx_mod.index_size(st) == 1


def test_fig5_candidates_after_inserting_5_7():
    """Fig. 5(b): adding edge (5,7) creates the second candidate
    (5,6,7) for clique (3,4,5)."""
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    st.add_edge(5, 7)
    idx_mod.build_index(st)
    assert st.cand[(3, 4, 5)] == {(1, 2, 3), (5, 6, 7)}


@pytest.mark.parametrize("name", ["FTB"])
@pytest.mark.parametrize("k", [3, 4])
def test_spark_index_equals_driver_index(spark, name, k):
    """``build_index_spark``, kept for the benchmark, builds the driver
    index and returns its size."""
    e = datasets.edges(name)
    st = _state(e, k)
    size = idx_mod.build_index_spark(spark, st)
    assert size == idx_mod.index_size(st)
    ref = _state(e, k)
    idx_mod.build_index(ref)
    assert st.cand == ref.cand


def test_candidates_require_free_and_nonfree_nodes():
    e = random_graph(1, 40)
    st = _state(e, 3)
    idx_mod.build_index(st)
    for c in st.S:
        for cand in st.cand[c]:
            non_free = [v for v in cand if not st.is_free(v)]
            assert 0 < len(non_free) < st.k
            assert all(st.node2c[v] == c for v in non_free)


def test_settle_free_restores_maximality():
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[(9, 10, 11)])  # leaves triangle(s) uncovered
    added = idx_mod.settle_free(st, [1, 2, 3, 4, 5])
    assert added, "settle must place at least one clique"
    cur = st.edges_array()
    validate.assert_valid_solution(cur, 3, st.S)
    assert validate.is_maximal(cur, 3, st.S)


def test_settle_free_noop_when_already_maximal():
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    assert idx_mod.settle_free(st, [1, 2, 6, 7]) == []


def test_state_add_remove_bookkeeping():
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[])
    c = st.add_to_S((3, 4, 5))
    assert not st.is_free(3) and st.node2c[4] == c
    st.remove_from_S(c)
    assert st.is_free(3) and c not in st.S


def test_state_rejects_overlapping_add():
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[(3, 4, 5)])
    with pytest.raises(AssertionError):
        st.add_to_S((1, 2, 3))


def test_free_neighbors():
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    assert st.free_neighbors((3, 4, 5)) == {1, 2, 6}


def test_edges_array_roundtrip():
    e = paper_fig5_g1_edges()
    st = _state(e, 3, S=[])
    assert np.array_equal(st.edges_array(), e)


# --- the C build against the per-clique rule ----------------------------

def _check_build(st):
    """``build_index`` equals ``candidates_for`` per clique, in S order,
    and the global definition; returns the index size."""
    want = {c: idx_mod.candidates_for(st, c) for c in st.S}
    idx_mod.build_index(st)
    assert list(st.cand) == list(want) and st.cand == want
    assert st.cand == _brute_candidates(st)
    return idx_mod.index_size(st)


def _sorted_edges(st):
    rows = sorted((u, v) for u, nb in st.adj.items() for v in nb if u < v)
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("kind", ["pp", "plc"])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_c_build_equals_per_clique_rule(k, kind):
    sizes = [_check_build(_state(random_graph(seed, 40, kind), k)) for seed in range(3)]
    assert sum(sizes) > 0, "no case has a candidate"


@pytest.mark.parametrize("k", [3, 4, 5])
def test_c_build_leaves_out_all_free_cliques_of_a_non_maximal_S(k):
    e = random_graph(2, 40)
    S = lp_numpy(e, k).S[::2]
    st = _state(e, k, S=S)
    free = {v for v in st.adj if st.is_free(v)}
    assert validate.cliques_in_subset(st.adj, free, k), "S leaves no all-free clique"
    assert _check_build(st) > 0
    assert all(any(not st.is_free(v) for v in c) for cands in st.cand.values() for c in cands)


def test_c_build_with_an_empty_S():
    st = _state(random_graph(0, 40), 3, S=[])
    idx_mod.build_index(st)
    assert st.cand == {} and idx_mod.index_size(st) == 0


@pytest.mark.parametrize("k", [3, 4])
def test_c_build_with_wide_and_negative_ids(k):
    e = (random_graph(1, 40) - 20) * 10_000_000_019
    assert e.min() < 0 and np.abs(e).max() >= 10**11
    st = _state(e, k)
    assert _check_build(st) > 0
    assert np.array_equal(st.edges_array(), _sorted_edges(st))


@pytest.mark.parametrize("k", [3, 4])
def test_c_build_with_nodes_left_without_edges(k):
    st = _state(random_graph(3, 40), k)
    idx_mod.build_index(st)
    for u in sorted(st.adj)[::5]:
        for v in sorted(st.adj[u]):
            upd.delete_edge(st, u, v)
    assert any(not nb for nb in st.adj.values())
    _check_build(st)
    assert np.array_equal(st.edges_array(), _sorted_edges(st))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [3, 4])
def test_c_build_after_a_stream_equals_the_maintained_index(seed, k):
    st = _state(random_graph(seed, 36), k)
    idx_mod.build_index(st)
    rng = random.Random(seed)
    nodes = sorted(st.adj)
    for _ in range(150):
        u, v = rng.sample(nodes, 2)
        (upd.delete_edge if st.has_edge(u, v) else upd.insert_edge)(st, u, v)
    maintained = {c: set(cands) for c, cands in st.cand.items()}
    _check_build(st)
    assert st.cand == maintained
    assert np.array_equal(st.edges_array(), _sorted_edges(st))


def test_edges_array_of_an_edgeless_state():
    st = st_mod.DynamicState(k=3, adj={5: set(), -2: set()})
    got = st.edges_array()
    assert got.shape == (0, 2) and got.dtype == np.int64
