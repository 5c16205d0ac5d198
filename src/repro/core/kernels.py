"""Enumeration and search kernels over an oriented adjacency.

These are the per-source recursions every algorithm in the paper is
built from. They are plain Python/numpy so the *same* code runs

- inside Spark ``mapInPandas`` tasks (oriented adjacency arrives via a
  broadcast), for the bulk parallel phases, and
- on the driver, for the sequential greedy tails (Algorithm 1's main
  loop, Algorithm 3's ``Calculation``).

Representation: ``adj[u]`` is a sorted ``int64`` array of the
out-neighbours of ``u`` in the DAG orientation (``eta(u) > eta(v)``),
so each k-clique is enumerated exactly once from its highest-``eta``
member (the standard kClist scheme the paper builds on). ``valid`` is
an optional boolean mask over node ids: nodes already placed in S are
masked out, which is how the framework "removes" chosen cliques
without rebuilding the graph.

Per source ``u``, the four oriented kernels share one local subgraph
(kClist's, Danisch et al., WWW 2018): the valid out-neighbours N+(u),
in ascending id, are relabelled 0..d-1 and each gets a Python-int
bitmask of its out-neighbours inside N+(u). A candidate set is then a
bitmask too, and one recursion step is ``cand & mask[i]`` with
``int.bit_count()`` for its size. Set bits are visited from low to
high, i.e. in ascending node id, so listing order, FindOne's first
clique and FindMin's ``visited`` counter are those of a recursion over
sorted id arrays.

The dynamic layer (Algorithms 5-7) lists with the same recursion, in
``cliques_in_subset``: over adjacency sets, on the common neighbours of
the required nodes inside an allowed set, oriented by id.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.budgets import OOT_MARKER, SimulatedOOT

_EMPTY = np.empty(0, dtype=np.int64)


def _local(adj, source, valid, need, undirected=False):
    """The local subgraph of ``source``, or None if it has fewer than
    ``need`` valid out-neighbours.

    Returns ``(ids, masks)``: ``ids[i]`` is the node id of local node
    ``i`` (ascending) and bit ``j`` of ``masks[i]`` is set iff ``ids[j]``
    is an out-neighbour of ``ids[i]`` (or, with ``undirected``, either
    kind of neighbour).
    """
    nodes = adj.get(source, _EMPTY)
    if valid is not None and len(nodes):
        nodes = nodes[valid[nodes]]
    if len(nodes) < need:
        return None
    ids = nodes.tolist()
    pos = {v: i for i, v in enumerate(ids)}
    local = pos.keys()
    masks = [0] * len(ids)
    for i, v in enumerate(ids):
        nb = adj.get(v)
        if nb is None:
            continue
        bit = 1 << i
        for w in local & nb.tolist():
            j = pos[w]
            masks[i] |= 1 << j
            if undirected:
                masks[j] |= bit
    return ids, masks


def _check_deadline(deadline: float | None, what: str) -> None:
    if deadline is not None and time.time() > deadline:
        raise SimulatedOOT(f"{OOT_MARKER}: {what} deadline exceeded")


def enumerate_from_source(
    adj: dict[int, np.ndarray],
    source: int,
    k: int,
    valid: np.ndarray | None = None,
    out: list | None = None,
    deadline: float | None = None,
) -> list[tuple[int, ...]]:
    """All k-cliques whose highest-``eta`` member is ``source``.

    Returns member tuples sorted by node id (the canonical clique
    identity used everywhere for tie-breaking and equality).
    """
    if out is None:
        out = []
    loc = _local(adj, source, valid, k - 1)
    if loc is not None:
        ids, masks = loc
        _enum_rec(ids, masks, (1 << len(ids)) - 1, k - 1, (source,), out, deadline)
    return out


def _enum_rec(ids, masks, cand, need, prefix, out, deadline):
    _check_deadline(deadline, "enumeration")
    rest = cand
    if need == 1:
        while rest:
            low = rest & -rest
            rest ^= low
            out.append(tuple(sorted(prefix + (ids[low.bit_length() - 1],))))
        return
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        nxt = cand & masks[i]
        if nxt.bit_count() >= need - 1:
            _enum_rec(ids, masks, nxt, need - 1, prefix + (ids[i],), out, deadline)


def count_from_source(
    adj: dict[int, np.ndarray],
    source: int,
    k: int,
    counts: dict[int, int],
) -> None:
    """Accumulate per-node k-clique membership counts (node scores,
    Def. 5) for all cliques rooted at ``source`` — without storing any
    clique, which is the whole point of Algorithm 3 line 2.

    Counting needs no particular order, so the local subgraph is taken
    undirected and each (k-1)-clique of it is reached once, from its
    lowest local index. Each recursion level returns the number of
    cliques below it, so a node is credited once per branch rather than
    once per clique, and at the last level a node's count is its number
    of neighbours in the candidate set, one ``bit_count``.
    """
    loc = _local(adj, source, None, k - 1, undirected=True)
    if loc is None:
        return
    ids, masks = loc
    local = [0] * len(ids)
    total = _count_rec(masks, (1 << len(ids)) - 1, k - 1, local)
    if total:
        counts[source] = counts.get(source, 0) + total
        for u, c in zip(ids, local):
            if c:
                counts[u] = counts.get(u, 0) + c


def _count_rec(masks, cand, need, local):
    """Number of ``need``-cliques inside ``cand``; adds each node's
    share to ``local``."""
    rest = cand
    total = 0
    if need <= 2:
        # need 1: every candidate is a clique. need 2: the cliques are
        # the edges inside ``cand``, each seen from both endpoints.
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            n = 1 if need == 1 else (cand & masks[i]).bit_count()
            local[i] += n
            total += n
        return total if need == 1 else total // 2
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        nxt = rest & masks[i]
        if nxt.bit_count() >= need - 1:
            n = _count_rec(masks, nxt, need - 1, local)
            local[i] += n
            total += n
    return total


def find_first_clique(
    adj: dict[int, np.ndarray],
    source: int,
    k: int,
    valid: np.ndarray | None,
) -> tuple[int, ...] | None:
    """Algorithm 1's ``FindOne``: the first k-clique encountered among
    the (still valid) out-neighbours of ``source``. Deterministic:
    candidates are scanned in ascending node id."""
    loc = _local(adj, source, valid, k - 1)
    if loc is None:
        return None
    ids, masks = loc
    got = _first_rec(ids, masks, (1 << len(ids)) - 1, k - 1, (source,))
    return tuple(sorted(got)) if got is not None else None


def _first_rec(ids, masks, cand, need, prefix):
    if need == 1:
        if not cand:
            return None
        return prefix + (ids[(cand & -cand).bit_length() - 1],)
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        nxt = cand & masks[i]
        if nxt.bit_count() >= need - 1:
            got = _first_rec(ids, masks, nxt, need - 1, prefix + (ids[i],))
            if got is not None:
                return got
    return None


def find_min_clique(
    adj: dict[int, np.ndarray],
    scores: dict[int, int],
    source: int,
    k: int,
    valid: np.ndarray | None = None,
    prune: bool = True,
    stats: dict | None = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Algorithm 3's ``FindMin``: the minimum-clique-score k-clique
    rooted at ``source``, with the score-driven pruning strategy.

    Total clique order is ``(s_c(C), sorted member tuple)`` — the fixed
    tie-break that makes Theorem 4 hold exactly (GC and L/LP return the
    identical S). Pruning therefore cuts a branch only when the partial
    score strictly exceeds the best score (a tie could still win on the
    member tuple), which preserves exactness of the minimum.

    Returns ``(clique_score, members)`` or None. ``stats['visited']``
    counts recursion candidates, to measure what pruning saves (L = no
    pruning vs LP = pruning; paper Fig. 6's L-vs-LP gap).
    """
    loc = _local(adj, source, valid, k - 1)
    if loc is None:
        return None
    ids, masks = loc
    local_scores = [scores.get(v, 0) for v in ids]
    best: list = [None, None]  # [score, members]
    visited = _min_rec(ids, masks, local_scores, (1 << len(ids)) - 1, k - 1, (source,),
                       scores.get(source, 0), best, prune)
    if stats is not None:
        stats["visited"] = stats.get("visited", 0) + visited
    if best[0] is None:
        return None
    return int(best[0]), best[1]


def _min_rec(ids, masks, local_scores, cand, need, prefix, s_cur, best, prune):
    """Returns the number of candidates visited (``cand`` and below)."""
    visited = cand.bit_count()
    rest = cand
    if need == 1:
        # With the prefix fixed, a smaller id makes a smaller member
        # tuple, so the lowest (score, id) candidate is the best here.
        low_s = low_i = None
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if low_s is None or local_scores[i] < low_s:
                low_s, low_i = local_scores[i], i
        s = s_cur + low_s
        members = tuple(sorted(prefix + (ids[low_i],)))
        if best[0] is None or (s, members) < (best[0], best[1]):
            best[0], best[1] = s, members
        return visited
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        s_v = s_cur + local_scores[i]
        # Prune: every completion adds `need - 1` more nodes with
        # scores >= s_n(v) is not guaranteed, so the sound bound is the
        # partial sum alone (as in the paper, Lines 19/27).
        if prune and best[0] is not None and s_v > best[0]:
            continue
        nxt = cand & masks[i]
        if nxt.bit_count() >= need - 1:
            visited += _min_rec(ids, masks, local_scores, nxt, need - 1, prefix + (ids[i],),
                                s_v, best, prune)
    return visited


# ---- undirected-neighbourhood kernel (dynamic maintenance) -------------

def cliques_in_subset(
    adj_sets: dict[int, set[int]],
    allowed: set[int],
    k: int,
    containing: tuple[int, ...] = (),
    first: bool = False,
) -> list[tuple[int, ...]]:
    """All k-cliques made of the nodes of ``containing`` and nodes of
    ``allowed``, in ascending member-tuple order; with ``first``, only
    the first of them (a list of at most one).

    The recursion of the oriented kernels, on the common neighbours of
    ``containing`` inside ``allowed``: relabelled in ascending id, each
    with a mask of its higher-id neighbours, so each clique is reached
    once.
    """
    cand = set(allowed)
    for i, u in enumerate(containing):
        nb = adj_sets.get(u, set())
        if not nb.issuperset(containing[i + 1:]):
            return []
        cand &= nb
    need = k - len(containing)
    if need <= 0 or len(cand) < need:
        return [tuple(sorted(containing))] if need == 0 else []
    ids = sorted(cand)
    pos = {v: i for i, v in enumerate(ids)}
    masks = [0] * len(ids)
    for i, v in enumerate(ids):
        for w in cand & adj_sets.get(v, set()):
            j = pos[w]
            if j > i:
                masks[i] |= 1 << j
    full, prefix = (1 << len(ids)) - 1, tuple(containing)
    if first:
        got = _first_rec(ids, masks, full, need, prefix)
        return [tuple(sorted(got))] if got else []
    out: list[tuple[int, ...]] = []
    _enum_rec(ids, masks, full, need, prefix, out, None)
    return out
