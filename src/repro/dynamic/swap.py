"""TrySwap (Algorithm 4) and candidate-index refresh.

A swap removes a clique ``C`` from S and adds >= 2 disjoint candidate
cliques from ``C(C)`` in its place, growing |S|. After any change to
the free/non-free status of nodes, only the candidates through those
nodes change, and the index is patched by that delta; owners that
*gained* candidates re-enter the FIFO queue (Algorithm 4 line 8).
"""
from __future__ import annotations

from collections import deque

from repro.core import kernels
from repro.core.gc import greedy_by_score
from repro.dynamic import index as index_mod
from repro.dynamic.state import Clique, DynamicState


def refresh_candidates(state: DynamicState, touched_nodes) -> set[Clique]:
    """Patch the candidate sets of every owner whose neighbourhood
    touches ``touched_nodes``, which must hold every node just freed,
    covered or moved to another clique; return the owners that gained
    candidates, in the order the owners are visited.

    An owner of a covered touched node (for every caller, a clique just
    placed in S) is listed from scratch. Any other owner keeps its
    candidates that miss the covered nodes and gains the cliques through
    a freed node whose non-free nodes are all its own; such an owner is
    adjacent to that freed node, so it is visited.
    """
    node2c, adj = state.node2c, state.adj
    owners: set[Clique] = set()
    covered: set[int] = set()
    freed: list[int] = []
    for x in touched_nodes:
        if x in node2c:
            owners.add(node2c[x])
            covered.add(x)
        else:
            freed.append(x)
        for w in adj.get(x, ()):  # cliques seeing x in their N_F
            if w in node2c:
                owners.add(node2c[w])
    placed = {node2c[x] for x in covered}
    adds: dict[Clique, set[Clique]] = {}
    for f in freed:
        for cand in kernels.cliques_in_subset(adj, adj.get(f, set()), state.k,
                                              containing=(f,)):
            held = {node2c[v] for v in cand if v in node2c}
            if len(held) == 1:  # a just-placed owner is relisted below
                adds.setdefault(held.pop(), set()).add(cand)
    gained: set[Clique] = set()
    for c in owners:
        if c in placed:
            new = index_mod.candidates_for(state, c)
            if new - state.cand.get(c, set()):
                gained.add(c)
            state.cand[c] = new
            continue
        cands = state.cand.setdefault(c, set())
        cands.difference_update([x for x in cands if not covered.isdisjoint(x)])
        fresh = adds.get(c, set()) - cands
        if fresh:
            cands |= fresh
            gained.add(c)
    return gained


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
        scored = [(state.clique_score(x), x) for x in state.cand.get(c, ())]
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
