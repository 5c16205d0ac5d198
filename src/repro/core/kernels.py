"""Enumeration and search kernels over an oriented adjacency.

These are the per-source recursions every algorithm in the paper is
built from, plain Python/numpy run on the driver: the per-source
passes (counting, HeapInit, listing) and the sequential greedy tails
(Algorithm 1's main loop, Algorithm 3's ``Calculation``) call the same
code.

Representation: ``adj`` is an :class:`~repro.graphs.adjacency.Oriented`
table. Its nodes sit at dense positions, in ascending id; the
out-neighbours of each in the DAG orientation (``eta(u) > eta(v)``)
form one CSR, so each k-clique is enumerated exactly once from its
highest-``eta`` member (the standard kClist scheme the paper builds
on); the orientation's triangles form a second per-source CSR. The
oriented kernels know nodes only by dense position (kClist relabels the
nodes 0..n-1 once the same way): a ``source`` is a position, cliques
come back as sorted tuples of positions, node scores and counts are
lists indexed by position, and ``valid`` is an optional boolean mask
over positions. Nodes already placed in S are masked out, which is how
the framework "removes" chosen cliques without rebuilding the graph.
Positions rise with node id, so every order below is also the order of
ids; the caller maps the cliques it keeps to ids.

Per source ``u``, the four oriented kernels share one local subgraph
(kClist's, Danisch et al., WWW 2018): the out-neighbours N+(u), in
ascending id, are local nodes 0..d-1, and each gets a Python-int
bitmask of its out-neighbours inside N+(u), set by one loop over the
triangles of ``u``: triangle row ``(i, j)`` is the arc from local node
``i`` to local node ``j``. A candidate set is then a bitmask too, and
one recursion step is ``cand & mask[i]`` with ``int.bit_count()`` for
its size. ``valid`` enters only through the starting candidate mask,
which every step narrows, so a masked node is never reached. Set bits
are visited from low to high, i.e. in ascending node id, so listing
order, FindOne's first clique and FindMin's ``visited`` counter are
those of a recursion over sorted id arrays.

The dynamic layer (Algorithms 5-7) lists with the same recursion, in
``cliques_in_subset``: over adjacency sets, on the common neighbours of
the required nodes inside an allowed set, oriented by id.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import Oriented


def _local(adj, source, valid, need, undirected=False):
    """The local subgraph of position ``source``, or None if it has
    fewer than ``need`` valid out-neighbours.

    Returns ``(nb, masks, cand)``: ``nb`` holds the positions of the
    out-neighbours (ascending, so ascending id), bit ``j`` of
    ``masks[i]`` is set iff ``nb[j]`` is an out-neighbour of ``nb[i]``
    (or, with ``undirected``, either kind of neighbour), and ``cand``
    has bit ``i`` set iff ``nb[i]`` is valid. An invalid node never
    enters a recursion, which only ever narrows ``cand``.
    """
    a, b = adj.ptr[source:source + 2].tolist()
    if b - a < need:
        return None
    nb = adj.ind[a:b]
    if valid is None:
        cand = (1 << (b - a)) - 1
    else:
        cand = int.from_bytes(np.packbits(valid[nb], bitorder="little").tobytes(), "little")
        if cand.bit_count() < need:
            return None
    s, e = adj.tptr[source:source + 2].tolist()
    masks = [0] * (b - a)
    if undirected:
        for i, j in adj.tri[s:e].tolist():
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    else:
        for i, j in adj.tri[s:e].tolist():
            masks[i] |= 1 << j
    return nb, masks, cand


def enumerate_from_source(
    adj: Oriented,
    source: int,
    k: int,
    valid: np.ndarray | None = None,
    out: list | None = None,
) -> list[tuple[int, ...]]:
    """All k-cliques whose highest-``eta`` member is ``source``.

    Returns member tuples sorted by position, i.e. by node id (the
    canonical clique identity used everywhere for tie-breaking and
    equality).
    """
    if out is None:
        out = []
    loc = _local(adj, source, valid, k - 1)
    if loc is not None:
        nb, masks, cand = loc
        _enum_rec(nb.tolist(), masks, cand, k - 1, (source,), out)
    return out


def _enum_rec(ids, masks, cand, need, prefix, out, first=False):
    """Append the cliques below ``prefix`` to ``out``; with ``first``,
    stop at the first one and return True."""
    rest = cand
    if need == 1:
        while rest:
            low = rest & -rest
            rest ^= low
            out.append(tuple(sorted(prefix + (ids[low.bit_length() - 1],))))
            if first:
                return True
        return False
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        nxt = cand & masks[i]
        if nxt.bit_count() >= need - 1:
            if _enum_rec(ids, masks, nxt, need - 1, prefix + (ids[i],), out, first):
                return True
    return False


def count_from_source(
    adj: Oriented,
    source: int,
    k: int,
    counts: list[int],
) -> None:
    """Add the k-clique membership counts (node scores, Def. 5) of all
    cliques rooted at ``source`` into ``counts``, indexed by position —
    without storing any clique, which is the whole point of Algorithm 3
    line 2.

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
    nb, masks, cand = loc
    local = [0] * len(masks)
    counts[source] += _count_rec(masks, cand, k - 1, local)
    for p, c in zip(nb.tolist(), local):
        counts[p] += c


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
    adj: Oriented,
    source: int,
    k: int,
    valid: np.ndarray | None,
) -> tuple[int, ...] | None:
    """Algorithm 1's ``FindOne``: the first k-clique encountered among
    the (still valid) out-neighbours of ``source``: the listing
    recursion, stopped at its first clique, so candidates are scanned
    in ascending node id."""
    loc = _local(adj, source, valid, k - 1)
    if loc is None:
        return None
    nb, masks, cand = loc
    out: list[tuple[int, ...]] = []
    _enum_rec(nb.tolist(), masks, cand, k - 1, (source,), out, first=True)
    return out[0] if out else None


def find_min_clique(
    adj: Oriented,
    scores: list[int],
    source: int,
    k: int,
    valid: np.ndarray | None = None,
    prune: bool = True,
) -> tuple[int, tuple[int, tuple[int, ...]] | None]:
    """Algorithm 3's ``FindMin``: the minimum-clique-score k-clique
    rooted at ``source``, with the score-driven pruning strategy;
    ``scores[p]`` is the node score of position ``p``.

    Total clique order is ``(s_c(C), sorted member tuple)`` — the fixed
    tie-break that makes Theorem 4 hold exactly (GC and L/LP return the
    identical S). Pruning therefore cuts a branch only when the partial
    score strictly exceeds the best score (a tie could still win on the
    member tuple), which preserves exactness of the minimum.

    Returns ``(visited, found)``: ``found`` is ``(clique_score,
    members)`` or None, and ``visited`` counts recursion candidates, to
    measure what pruning saves (L = no pruning vs LP = pruning; paper
    Fig. 6's L-vs-LP gap).
    """
    loc = _local(adj, source, valid, k - 1)
    if loc is None:
        return 0, None
    nb, masks, cand = loc
    ids = nb.tolist()
    local_scores = [scores[p] for p in ids]
    best: list = [None, None]  # [score, members]
    visited = _min_rec(ids, masks, local_scores, cand, k - 1, (source,), scores[source], best,
                       prune)
    return visited, (tuple(best) if best[0] is not None else None)


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
    out: list[tuple[int, ...]] = []
    _enum_rec(ids, masks, (1 << len(ids)) - 1, need, tuple(containing), out, first)
    return out
