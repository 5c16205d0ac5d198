"""Candidate-clique index tests (Algorithm 5): definition-level
cross-check, the paper's Fig. 5 example and free-node settling."""
import numpy as np
import pytest

from repro.core import validate
from repro.core.lp import lp_numpy
from repro.dynamic import index as idx_mod
from repro.dynamic import state as st_mod
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
