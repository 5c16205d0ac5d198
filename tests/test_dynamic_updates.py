"""Dynamic update tests (Algorithms 4, 6, 7): the paper's Fig. 5
swap scenario, targeted insertion/deletion cases, and randomized
update streams with full invariant checking."""
import copy
import random
from collections import deque

import numpy as np
import pytest

from repro.core import validate
from repro.core.lp import lp_numpy
from repro.dynamic import index as idx_mod
from repro.dynamic import state as st_mod
from repro.dynamic import swap
from repro.dynamic import updates as upd
from repro.dynamic.swap import try_swap

from tests.helpers import paper_fig5_g1_edges, random_graph, ref_refresh_candidates


def _indexed_state(e, k, S=None):
    S = lp_numpy(e, k).S if S is None else S
    st = st_mod.from_edges(e, k, S)
    idx_mod.build_index(st)
    return st


def _check_invariants(st):
    cur = st.edges_array()
    validate.assert_valid_solution(cur, st.k, st.S)
    assert validate.is_maximal(cur, st.k, st.S), "maximality violated"
    for c in list(st.S):
        assert st.cand.get(c, set()) == idx_mod.candidates_for(st, c), (
            f"index stale for {c}"
        )


# --- the paper's Fig. 5 narrative ---------------------------------------

def test_fig5_insertion_triggers_swap():
    """Inserting (5,7) lets TrySwap replace (3,4,5) by the two
    candidates (1,2,3) and (5,6,7): |S| grows from 2 to 3."""
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    delta = upd.insert_edge(st, 5, 7)
    assert delta == 1
    assert st.S == {(1, 2, 3), (5, 6, 7), (9, 10, 11)}
    _check_invariants(st)


def test_fig5_deletion_reverts_swap():
    """Deleting (5,7) from G2 destroys (5,6,7); the result is the
    2-clique maximum of G1 again (paper's deletion example)."""
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    upd.insert_edge(st, 5, 7)
    delta = upd.delete_edge(st, 5, 7)
    assert delta == -1
    assert st.S == {(1, 2, 3), (9, 10, 11)}
    _check_invariants(st)


# --- targeted unit cases -------------------------------------------------

def test_insert_edge_forming_free_clique_adds_directly():
    e = np.array([[1, 2], [3, 4], [4, 5], [3, 5], [1, 6]], dtype=np.int64)
    st = _indexed_state(e, 3, S=[(3, 4, 5)])
    delta = upd.insert_edge(st, 2, 7)  # dangling: no triangle yet
    assert delta == 0
    delta = upd.insert_edge(st, 2, 6)  # closes free triangle (1,2,6)
    assert delta == 1 and (1, 2, 6) in st.S
    _check_invariants(st)


def test_insert_between_covered_nodes_same_clique_noop_when_no_candidates():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    assert upd.insert_edge(st, 9, 10) == 0  # already an edge
    assert upd.insert_edge(st, 4, 9) == 0  # covered, different cliques
    _check_invariants(st)


def test_insert_duplicate_edge_is_noop():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3)
    before = set(st.S)
    assert upd.insert_edge(st, 1, 2) == 0
    assert st.S == before


def test_delete_missing_edge_is_noop():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3)
    assert upd.delete_edge(st, 1, 11) == 0
    _check_invariants(st)


def test_delete_candidate_edge_updates_index():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    assert st.cand[(3, 4, 5)] == {(1, 2, 3)}
    upd.delete_edge(st, 1, 2)  # kills the candidate, S unchanged
    assert st.S == {(3, 4, 5), (9, 10, 11)}
    assert st.cand[(3, 4, 5)] == set()
    _check_invariants(st)


def test_delete_inside_clique_recovers():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    delta = upd.delete_edge(st, 4, 5)
    # (3,4,5) destroyed, but candidate (1,2,3) is picked up.
    assert delta == 0
    assert (1, 2, 3) in st.S
    _check_invariants(st)


def test_try_swap_grows_size():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    st.add_edge(5, 7)
    idx_mod.build_index(st)
    grown = try_swap(st, deque([(3, 4, 5)]))
    assert grown == 1 and len(st.S) == 3


def test_try_swap_skips_single_candidate():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    grown = try_swap(st, deque([(3, 4, 5), (9, 10, 11)]))
    assert grown == 0 and st.S == {(3, 4, 5), (9, 10, 11)}


def test_try_swap_ignores_removed_clique():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(9, 10, 11)])
    grown = try_swap(st, deque([(3, 4, 5)]))  # not in S
    assert grown == 0


# --- randomized streams with invariants ---------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [3, 4])
def test_random_stream_invariants(seed, k):
    e = random_graph(seed, 36)
    st = _indexed_state(e, k)
    rng = random.Random(seed)
    nodes = sorted(st.adj)
    for i in range(120):
        u, v = rng.sample(nodes, 2)
        if st.has_edge(u, v):
            upd.delete_edge(st, u, v)
        else:
            upd.insert_edge(st, u, v)
        if i % 30 == 29:
            _check_invariants(st)
    _check_invariants(st)


@pytest.mark.parametrize("seed", range(3))
def test_stream_quality_tracks_from_scratch(seed):
    """Table VIII's message: after heavy churn the maintained S stays
    within a few cliques of a from-scratch rebuild."""
    k = 3
    e = random_graph(seed, 48)
    st = _indexed_state(e, k)
    rng = random.Random(100 + seed)
    nodes = sorted(st.adj)
    for _ in range(200):
        u, v = rng.sample(nodes, 2)
        if st.has_edge(u, v):
            upd.delete_edge(st, u, v)
        else:
            upd.insert_edge(st, u, v)
    scratch = lp_numpy(st.edges_array(), k).size
    assert abs(len(st.S) - scratch) <= max(2, int(0.15 * scratch))


def test_delete_all_edges_empties_solution():
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3)
    for u, v in e:
        upd.delete_edge(st, int(u), int(v))
    assert st.S == set()
    assert st.edges_array().size == 0


def test_insert_rebuilds_from_empty():
    e = paper_fig5_g1_edges()
    empty = np.empty((0, 2), dtype=np.int64)
    st = st_mod.DynamicState(k=3, adj={int(v): set() for v in e.reshape(-1)})
    idx_mod.build_index(st)
    for u, v in e:
        upd.insert_edge(st, int(u), int(v))
    # G1's maximum is 2 (triangles (1,2,3)/(3,4,5) share v3; (9,10,11)).
    assert len(st.S) == 2
    _check_invariants(st)


# --- the delta refresh in lockstep with the full recompute --------------

@pytest.fixture
def lockstep_refresh(monkeypatch):
    """Run ``ref_refresh_candidates`` before every refresh, on a copy of
    the state whose candidate sets are its own, and require the same
    index and the same ``gained``, iteration order included (TrySwap
    queues owners in that order, and S depends on it). The copy shares
    the graph: the oracle writes only ``cand``, and the owners' order
    follows the adjacency sets' iteration order. Returns the sizes of
    the ``gained`` sets checked."""
    real = swap.refresh_candidates
    gained_sizes: list[int] = []

    def checked(state, touched_nodes):
        ref = copy.copy(state)
        ref.cand = {c: set(cs) for c, cs in state.cand.items()}
        want = ref_refresh_candidates(ref, touched_nodes)
        got = real(state, touched_nodes)
        assert state.cand == ref.cand
        assert list(got) == list(want)
        gained_sizes.append(len(got))
        return got

    monkeypatch.setattr(swap, "refresh_candidates", checked)
    monkeypatch.setattr(upd, "refresh_candidates", checked)
    return gained_sizes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_refresh_matches_full_recompute(lockstep_refresh, seed, k):
    e = random_graph(seed, 48)
    st = _indexed_state(e, k)
    rng = random.Random(seed)
    nodes = sorted(st.adj)
    for _ in range(200):
        u, v = rng.sample(nodes, 2)
        if st.has_edge(u, v):
            upd.delete_edge(st, u, v)
        else:
            upd.insert_edge(st, u, v)
    _check_invariants(st)
    assert lockstep_refresh, "the stream never refreshed the index"


def test_refresh_matches_full_recompute_fig5(lockstep_refresh):
    e = paper_fig5_g1_edges()
    st = _indexed_state(e, 3, S=[(3, 4, 5), (9, 10, 11)])
    assert upd.insert_edge(st, 5, 7) == 1
    assert upd.delete_edge(st, 5, 7) == -1
    assert st.S == {(1, 2, 3), (9, 10, 11)}
    _check_invariants(st)
    assert lockstep_refresh
