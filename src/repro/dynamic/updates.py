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
    """All k-cliques of the current graph containing edge (u, v): u, v
    and common neighbours of both."""
    return kernels.cliques_in_subset(state.adj, state.adj[u], state.k, containing=(u, v))


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
    if not state.is_free(u) and not state.is_free(v):
        # A candidate's non-free nodes all come from one clique of S, and
        # u and v are in different cliques (members of one are adjacent
        # already), so no new clique through (u, v) is a candidate.
        return 0

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
    picked up), patch the index by the nodes that flipped (cliques
    through a node still free become candidates of their owner) and
    TrySwap (paper lines 1-4). Otherwise only candidate cliques die
    (lines 5-6).
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
        # Other owners' candidates cannot contain nodes of cu (they were
        # non-free), so only cu's own candidate set dies, and it left
        # with the clique. Re-cover the freed nodes:
        added = index_mod.settle_free(state, cu)
        touched = set(cu)
        for x in added:
            touched.update(x)
        gained = refresh_candidates(state, touched)
        if gained:
            try_swap(state, deque(gained))
    else:
        # Only candidates through (u, v) die. Their nodes lie in
        # {u, v} ∪ (N(u) ∩ N(v)), so only the owners of those nodes can
        # hold one.
        around = {u, v} | (state.adj.get(u, set()) & state.adj.get(v, set()))
        for owner in {state.node2c[x] for x in around if not state.is_free(x)}:
            cands = state.cand[owner]
            cands.difference_update([c for c in cands if u in c and v in c])
    return len(state.S) - before
