"""Per-edge incremental updates (Algorithms 6 and 7).

``insert_edge`` / ``delete_edge`` mutate a :class:`DynamicState` while
preserving the invariants the tests enforce after every update:
S is a valid disjoint k-clique set of the current graph, S is maximal
(no k-clique among free nodes), and the candidate index matches its
from-scratch definition.
"""
from __future__ import annotations

from collections import deque

from repro.core import kernels
from repro.dynamic import index as index_mod
from repro.dynamic.state import Clique, DynamicState
from repro.dynamic.swap import refresh_candidates, try_swap


def _cliques_through_edge(state: DynamicState, u: int, v: int) -> list[Clique]:
    """All k-cliques of the current graph containing edge (u, v):
    they live inside {u, v} ∪ (N(u) ∩ N(v))."""
    common = state.adj.get(u, set()) & state.adj.get(v, set())
    allowed = {u, v} | common
    return kernels.cliques_in_subset(state.adj, allowed, state.k, containing=(u, v))


def insert_edge(state: DynamicState, u: int, v: int) -> int:
    """Algorithm 6. Returns the change in |S|.

    New k-cliques through (u, v) are classified: an all-free clique is
    added to S directly (paper lines 7-10 — no swap needed); a clique
    whose non-free nodes all come from one clique ``C`` in S becomes a
    new candidate of ``C`` (lines 1-6 and 11-15), and every owner that
    gained candidates goes through TrySwap.
    """
    u, v = int(u), int(v)
    if u == v or state.has_edge(u, v):
        return 0
    before = len(state.S)
    state.add_edge(u, v)
    u_free, v_free = state.is_free(u), state.is_free(v)
    if not u_free and not v_free:
        # Both nodes already covered: no candidate can use this edge
        # (a candidate's non-free nodes share one owner, and even then
        # it needs a free node — no new clique through (u,v) has one
        # unless it has other free members, which requires u or v free?
        # No: a candidate may contain (u,v) non-free plus free others —
        # but only if u and v share the same owner clique.)
        if state.node2c[u] == state.node2c[v]:
            owner = state.node2c[u]
            gained = refresh_candidates(state, {u, v})
            if gained:
                try_swap(state, deque(gained))
        return len(state.S) - before

    new_cands: dict[Clique, list[Clique]] = {}
    for cand in _cliques_through_edge(state, u, v):
        non_free = [x for x in cand if not state.is_free(x)]
        if not non_free:
            # All free: add directly (restores maximality).
            state.add_to_S(cand)
            for owner in refresh_candidates(state, set(cand)):
                new_cands.setdefault(owner, [])
            continue
        owners = {state.node2c[x] for x in non_free}
        if len(owners) == 1 and len(non_free) < state.k:
            owner = next(iter(owners))
            state.cand.setdefault(owner, set()).add(cand)
            new_cands.setdefault(owner, []).append(cand)
    if new_cands:
        try_swap(state, deque(new_cands))
    return len(state.S) - before


def delete_edge(state: DynamicState, u: int, v: int) -> int:
    """Algorithm 7. Returns the change in |S|.

    If (u, v) was inside a clique ``C`` of S, C is destroyed: free its
    nodes, settle them (former candidates that are now all-free get
    picked up), refresh the neighbourhood and TrySwap (paper lines
    1-4). Otherwise only candidate cliques die (lines 5-6).
    """
    u, v = int(u), int(v)
    if not state.has_edge(u, v):
        return 0
    before = len(state.S)
    state.del_edge(u, v)
    cu = state.node2c.get(u)
    cv = state.node2c.get(v)
    if cu is not None and cu == cv:
        state.remove_from_S(cu)
        # Drop candidates of other owners that used destroyed coverage?
        # Other owners' candidates cannot contain nodes of cu (they were
        # non-free), so only cu's own candidate set dies — already
        # removed with the clique. Re-cover the freed nodes:
        added = index_mod.settle_free(state, cu)
        touched = set(cu)
        for x in added:
            touched.update(x)
        gained = refresh_candidates(state, touched)
        if gained:
            try_swap(state, deque(gained))
    else:
        # The edge may have supported candidate cliques of u's or v's
        # neighbourhood owners: drop any candidate containing both ends.
        for owner_set in state.cand.values():
            dead = [c for c in owner_set if u in c and v in c]
            for c in dead:
                owner_set.discard(c)
    return len(state.S) - before
