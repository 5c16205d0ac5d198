"""TrySwap (Algorithm 4) and candidate-index refresh.

A swap removes a clique ``C`` from S and adds >= 2 disjoint candidate
cliques from ``C(C)`` in its place, growing |S|. After any change to
the free/non-free status of nodes, the candidate sets of every clique
whose free neighbourhood touched those nodes are refreshed; owners
that *gained* candidates re-enter the FIFO queue (Algorithm 4 line 8).
"""
from __future__ import annotations

from collections import deque

from repro.core.gc import greedy_by_score
from repro.dynamic import index as index_mod
from repro.dynamic.state import Clique, DynamicState


def refresh_candidates(state: DynamicState, touched_nodes) -> set[Clique]:
    """Recompute candidate sets of every owner whose neighbourhood
    touches ``touched_nodes``; return owners that gained candidates."""
    owners: set[Clique] = set()
    for x in touched_nodes:
        if not state.is_free(x):
            owners.add(state.node2c[x])
        for w in state.adj.get(x, ()):  # cliques seeing x in their N_F
            if not state.is_free(w):
                owners.add(state.node2c[w])
    gained: set[Clique] = set()
    for c in owners:
        if c not in state.S:
            continue
        old = state.cand.get(c, set())
        new = index_mod.candidates_for(state, c)
        state.cand[c] = new
        if new - old:
            gained.add(c)
    return gained


def _valid_candidate(state: DynamicState, owner: Clique, cand: Clique) -> bool:
    """Defensive re-check at use time: still a clique, free nodes still
    free, non-free nodes still exactly from ``owner``."""
    from repro.core.validate import is_clique

    if not is_clique(state.adj, cand):
        return False
    non_free = [v for v in cand if not state.is_free(v)]
    return bool(non_free) and len(non_free) < state.k and all(
        state.node2c[v] == owner for v in non_free
    )


def try_swap(state: DynamicState, queue: deque[Clique]) -> int:
    """Run Algorithm 4. Returns the net growth of |S|.

    Each iteration pops ``C``, finds a maximal disjoint subset of its
    candidates with Algorithm 2's greedy (ascending clique score, the
    same fixed tie-break as the static algorithms), and swaps when that
    subset has more than one clique. Nodes of ``C`` not reused by the
    replacement are settled (maximality) and all affected candidate
    sets are refreshed; owners with new candidates are re-queued.
    """
    grown = 0
    while queue:
        c = queue.popleft()
        if c not in state.S:
            continue
        cands = [
            x for x in state.cand.get(c, set()) if _valid_candidate(state, c, x)
        ]
        if not cands:
            continue
        scored = [(state.clique_score(x), x) for x in cands]
        s_dis = greedy_by_score(scored)
        if len(s_dis) <= 1:
            continue
        # Swap: free C, place the disjoint candidates, settle leftovers.
        state.remove_from_S(c)
        placed = [state.add_to_S(x) for x in s_dis]
        leftovers = [v for v in c if state.is_free(v)]
        added = index_mod.settle_free(state, leftovers)
        grown += len(placed) + len(added) - 1
        touched = set(c)
        for x in placed + added:
            touched.update(x)
        for owner in refresh_candidates(state, touched):
            queue.append(owner)
    return grown
