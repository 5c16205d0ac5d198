"""Shared test utilities: small random graphs with known properties, and
the reference oracles the kernels and the Spark listing are checked against."""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import kernels
from repro.core.budgets import Budget, SimulatedOOT
from repro.dynamic import index as index_mod
from repro.graphs import generators as gen
from repro.graphs.adjacency import Oriented


def random_graph(seed: int, n: int = 40, kind: str = "pp") -> np.ndarray:
    """A small deterministic graph with enough cliques to be
    interesting: planted-partition (dense blocks) or powerlaw-cluster."""
    if kind == "pp":
        return gen.planted_partition(n, max(2, n // 10), 0.7, 0.08, seed=seed)
    if kind == "plc":
        return gen.powerlaw_cluster(n, 5, 0.7, seed=seed)
    if kind == "er":
        return gen.erdos_renyi(n, n * 3, seed=seed)
    raise ValueError(kind)


def paper_fig2_edges() -> np.ndarray:
    """The running-example graph of Fig. 2 (9 nodes, 15 edges, seven
    3-cliques C1..C7). Node ids are 1-based as in the paper."""
    e = [
        (1, 3), (1, 6), (3, 6),          # C1 = (v1, v3, v6)
        (3, 5), (5, 6),                  # C2 = (v3, v5, v6)
        (5, 8), (6, 8),                  # C3 = (v5, v6, v8)
        (5, 7), (7, 8),                  # C4 = (v5, v7, v8)
        (8, 9), (7, 9),                  # C5 = (v7, v8, v9)
        (4, 7), (4, 9),                  # C6 = (v4, v7, v9)
        (2, 4), (2, 9),                  # C7 = (v2, v4, v9)
    ]
    return np.array(sorted((min(a, b), max(a, b)) for a, b in e), dtype=np.int64)


def paper_fig5_g1_edges() -> np.ndarray:
    """The dynamic running example of Fig. 5 (graph G1): triangles
    (1,2,3), (3,4,5), (9,10,11), and the path 5-6-7. Adding edge
    (5,7) yields G2."""
    e = [
        (1, 2), (1, 3), (2, 3),
        (3, 4), (3, 5), (4, 5),
        (5, 6), (6, 7),
        (9, 10), (9, 11), (10, 11),
    ]
    return np.array(sorted(e), dtype=np.int64)


def to_ids(nodes, cliques) -> list[tuple[int, ...]]:
    """Cliques of dense positions as tuples of the node ids ``nodes``
    (ascending) holds at those positions."""
    ids = np.asarray(nodes).tolist()
    return [tuple(ids[p] for p in c) for c in cliques]


def runs(rows, k) -> list[tuple[int, ...]]:
    """Listed cliques, as the C kernel's rows or the Python oracle's flat
    runs of ``k`` positions, as sorted member tuples, in listing order."""
    return [tuple(sorted(r)) for r in np.asarray(rows, dtype=np.int64).reshape(-1, k).tolist()]


def by_id(nodes, counts) -> dict[int, int]:
    """Counts indexed by dense position as ``{node id: count}``, the
    zeros left out."""
    return {v: c for v, c in zip(np.asarray(nodes).tolist(), list(counts)) if c}


class TripBudget(Budget):
    """Counts ``check_time`` calls and raises ``SimulatedOOT`` on call
    ``trip_at`` (never when it is None)."""

    def __init__(self, trip_at=None):
        super().__init__()
        self.trip_at, self.calls = trip_at, 0

    def check_time(self) -> None:
        self.calls += 1
        if self.calls == self.trip_at:
            raise SimulatedOOT("tripped")


# ---- Python oracle: the bitset recursions, the numpy triangle search and
# the numpy table builder that the C code of ``repro/core/_kernels.c``
# replaced. The kernels take the same ``Oriented`` table and positions; the
# property tests require the C code to return identical results: every
# table array, triangle rows in order, rows in listing order, FindOne's
# clique, FindMin's (score, members) and ``visited``, every count.

# Wedges checked per vectorized step of the numpy triangle search.
WEDGE_CHUNK = 1 << 16
# Sources whose out-neighbourhoods are marked at once, one bit each.
_GROUP = 64


def py_triangles(ptr, ind):
    """The source and the int32 local pair ``(i, j)`` of every triangle of
    the CSR ``ptr``/``ind``, grouped by source, as the arcs are.

    Every wedge ``u -> v -> w`` is checked for the arc ``u -> w``. Sources
    are taken ``_GROUP`` at a time: ``mark[w]`` has the bit of each source
    of the group that has the arc to ``w``, so one gather checks a wedge,
    and a binary search among the group's sorted arc keys gives the local
    index of ``w`` for the wedges that close. Wedges are numbered in arc
    order, then in N+(v) order, and checked ``WEDGE_CHUNK`` at a time.
    """
    n = len(ptr) - 1
    deg = np.diff(ptr)
    key = np.repeat(np.arange(n, dtype=np.int64), deg) * n + ind
    end = np.cumsum(deg[ind])  # arc e owns the wedges [end[e] - deg[ind[e]], end[e])
    mark = np.zeros(n, dtype=np.uint64)
    srcs, pairs = [ind[:0]], [np.empty((0, 2), dtype=np.int32)]
    for g in range(0, n, _GROUP):
        a, b = ptr[g], ptr[min(g + _GROUP, n)]  # the arcs out of the group
        if a == b:
            continue
        d = deg[g:g + _GROUP]
        bit = np.left_shift(np.uint64(1), np.repeat(np.arange(len(d), dtype=np.uint64), d))
        np.bitwise_or.at(mark, ind[a:b], bit)
        for lo in range(int(end[a] - deg[ind[a]]), int(end[b - 1]), WEDGE_CHUNK):
            hi = min(lo + WEDGE_CHUNK, int(end[b - 1]))
            e0, e1 = np.searchsorted(end, [lo, hi - 1], side="right").tolist()
            arcs = np.arange(e0, e1 + 1)
            v = ind[arcs]
            start = end[arcs] - deg[v]
            count = np.minimum(end[arcs], hi) - np.maximum(start, lo)
            # wedge x of arc e ends at ind[ptr[v] + x - start(e)]
            third = ind[np.repeat(ptr[v] - start, count) + np.arange(lo, hi)]
            e = np.repeat(arcs, count)
            hit = (mark[third] & bit[e - a]) != 0  # u -> w is an arc too: a triangle
            e, third = e[hit], third[hit]
            u = key[e] // n
            at = np.searchsorted(key[a:b], u * n + third) + a
            srcs.append(u.astype(ind.dtype))
            pairs.append(np.column_stack((e - ptr[u], at - ptr[u])).astype(np.int32))
        mark[ind[a:b]] = 0
    return np.concatenate(srcs), np.concatenate(pairs)


def py_orient(edges, nodes, rank, k=None, live=None):
    """The table ``adjacency.orient_by_rank`` builds, by the numpy path it
    replaced: edge ids mapped to positions with ``np.searchsorted``, the
    arcs sorted by their keys ``pos(u) * n + pos(v)`` into the CSR, the
    triangle rows found by the numpy wedge check (``py_triangles``), and,
    given ``k``, the arcs in no k-clique dropped by ``py_keep_clique_arcs``;
    ``k`` None keeps the whole table. ``rank`` None takes each edge as the
    arc it is."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pu, pv = np.searchsorted(nodes, edges[:, 0]), np.searchsorted(nodes, edges[:, 1])
    if live is not None:
        both = live[pu] & live[pv]
        pu, pv = pu[both], pv[both]
    if rank is not None:
        down = rank[pu] < rank[pv]
        pu[down], pv[down] = pv[down], pu[down]
    t = _py_table(nodes, pu * len(nodes) + pv)
    return t if k is None else py_keep_clique_arcs(t, k)


def _py_table(nodes, key):
    """The table of the arcs with keys ``pos(u) * n + pos(v)``."""
    n = len(nodes)
    key = np.sort(key)  # arcs ordered by (source, target)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=ptr[1:])
    ind = (key % n).astype(np.int32)
    tsrc, tri = py_triangles(ptr, ind)
    tptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tsrc, minlength=n), out=tptr[1:])
    return Oriented(nodes, ptr, ind, tptr, tri)


def py_keep_clique_arcs(t, k):
    """``t`` without the arcs in fewer than k-2 triangle rows of their
    source, and without the rows through them; the kept rows are
    re-indexed into the shorter out-neighbour lists."""
    n = t.n
    tsrc = np.repeat(np.arange(n), np.diff(t.tptr))
    at = t.ptr[tsrc][:, None] + t.tri  # each row's two arcs
    keep = np.bincount(at.reshape(-1), minlength=len(t.ind)) >= k - 2
    rows = keep[at].all(axis=1)
    before = np.zeros(len(keep) + 1, dtype=np.int64)  # kept arcs before each arc
    np.cumsum(keep, out=before[1:])
    ptr = before[t.ptr]
    tsrc = tsrc[rows]
    tri = (before[at[rows]] - ptr[tsrc][:, None]).astype(np.int32)
    tptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tsrc, minlength=n), out=tptr[1:])
    return Oriented(t.nodes, ptr, t.ind[keep], tptr, tri)


def py_local(adj, source, valid, need, undirected=False):
    """The local subgraph of position ``source``, or None if it has
    fewer than ``need`` valid out-neighbours.

    Returns ``(nb, masks, cand)``: ``nb`` holds the positions of the
    out-neighbours (ascending, so ascending id), bit ``j`` of
    ``masks[i]`` is set iff ``nb[j]`` is an out-neighbour of ``nb[i]``
    (or, with ``undirected``, either kind of neighbour), and ``cand``
    has bit ``i`` set iff ``nb[i]`` is valid.
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
    for i, j in adj.tri[s:e].tolist():
        masks[i] |= 1 << j
        if undirected:
            masks[j] |= 1 << i
    return nb, masks, cand


def py_enumerate_from_source(adj, source, k, valid=None):
    """The cliques rooted at ``source`` as flat runs of k positions:
    ``source``, then the members in the order the recursion fixed them."""
    out: list[int] = []
    loc = py_local(adj, source, valid, k - 1)
    if loc is not None:
        nb, masks, cand = loc
        kernels._enum_rec(nb.tolist(), masks, cand, k - 1, (source,), out)
    return out


def py_find_first_clique(adj, source, k, valid):
    loc = py_local(adj, source, valid, k - 1)
    if loc is None:
        return None
    nb, masks, cand = loc
    out: list[int] = []
    kernels._enum_rec(nb.tolist(), masks, cand, k - 1, (source,), out, first=True)
    return tuple(sorted(out)) if out else None


def py_count_from_source(adj, source, k, counts):
    """Adds the node scores of the cliques rooted at ``source`` into the
    position-indexed ``counts``."""
    loc = py_local(adj, source, None, k - 1, undirected=True)
    if loc is None:
        return
    nb, masks, cand = loc
    local = [0] * len(masks)
    counts[source] += _py_count_rec(masks, cand, k - 1, local)
    for p, c in zip(nb.tolist(), local):
        counts[p] += c


def _py_count_rec(masks, cand, need, local):
    rest = cand
    total = 0
    if need <= 2:
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
            n = _py_count_rec(masks, nxt, need - 1, local)
            local[i] += n
            total += n
    return total


def py_find_min_clique(adj, scores, source, k, valid=None, prune=True):
    """``(visited, (score, members) or None)``, as the C FindMin returns."""
    loc = py_local(adj, source, valid, k - 1)
    if loc is None:
        return 0, None
    nb, masks, cand = loc
    ids = nb.tolist()
    local_scores = [int(scores[p]) for p in ids]
    best: list = [None, None]
    visited = _py_min_rec(ids, masks, local_scores, cand, k - 1, (source,), int(scores[source]),
                          best, prune)
    return visited, (tuple(best) if best[0] is not None else None)


def _py_min_rec(ids, masks, local_scores, cand, need, prefix, s_cur, best, prune):
    visited = cand.bit_count()
    rest = cand
    if need == 1:
        low_s = low_i = None
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if low_s is None or local_scores[i] < low_s:
                low_s, low_i = local_scores[i], i
        s = s_cur + low_s
        if best[0] is None or s <= best[0]:
            members = tuple(sorted(prefix + (ids[low_i],)))
            if best[0] is None or (s, members) < (best[0], best[1]):
                best[0], best[1] = s, members
        return visited
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        s_v = s_cur + local_scores[i]
        if prune and best[0] is not None and s_v > best[0]:
            continue
        nxt = cand & masks[i]
        if nxt.bit_count() >= need - 1:
            visited += _py_min_rec(ids, masks, local_scores, nxt, need - 1, prefix + (ids[i],),
                                   s_v, best, prune)
    return visited


# ---- reference oracle: the np.intersect1d kernels and the loop-based
# rank/orient helpers that the bitset kernels and the numpy preparation
# replaced. Property tests assert the replacements agree with these
# exactly, including listing order and the FindMin ``visited`` counter.

_EMPTY = np.empty(0, dtype=np.int64)


def _ref_out(adj, u, valid=None):
    arr = adj.get(u, _EMPTY)
    if valid is None or len(arr) == 0:
        return arr
    return arr[valid[arr]]


def ref_enumerate_from_source(adj, source, k, valid=None, out=None):
    if out is None:
        out = []
    cand = _ref_out(adj, source, valid)
    if len(cand) >= k - 1:
        _ref_enum_rec(adj, cand, k - 1, (source,), valid, out)
    return out


def _ref_enum_rec(adj, cand, need, prefix, valid, out):
    if need == 1:
        for c in cand:
            out.append(tuple(sorted(prefix + (int(c),))))
        return
    for v in cand:
        nxt = np.intersect1d(cand, _ref_out(adj, int(v), valid), assume_unique=True)
        if len(nxt) >= need - 1:
            _ref_enum_rec(adj, nxt, need - 1, prefix + (int(v),), valid, out)


def ref_count_from_source(adj, source, k, counts):
    cand = _ref_out(adj, source)
    if len(cand) >= k - 1:
        _ref_count_rec(adj, cand, k - 1, [source], counts)


def _ref_count_rec(adj, cand, need, prefix, counts):
    if need == 1:
        if len(cand) == 0:
            return
        for p in prefix:
            counts[p] = counts.get(p, 0) + len(cand)
        for c in cand:
            counts[int(c)] = counts.get(int(c), 0) + 1
        return
    for v in cand:
        nxt = np.intersect1d(cand, _ref_out(adj, int(v)), assume_unique=True)
        if len(nxt) >= need - 1:
            prefix.append(int(v))
            _ref_count_rec(adj, nxt, need - 1, prefix, counts)
            prefix.pop()


def ref_find_first_clique(adj, source, k, valid):
    cand = _ref_out(adj, source, valid)
    if len(cand) < k - 1:
        return None
    got = _ref_first_rec(adj, cand, k - 1, (source,), valid)
    return tuple(sorted(got)) if got is not None else None


def _ref_first_rec(adj, cand, need, prefix, valid):
    if need == 1:
        return prefix + (int(cand[0]),) if len(cand) else None
    for v in cand:
        nxt = np.intersect1d(cand, _ref_out(adj, int(v), valid), assume_unique=True)
        if len(nxt) >= need - 1:
            got = _ref_first_rec(adj, nxt, need - 1, prefix + (int(v),), valid)
            if got is not None:
                return got
    return None


def ref_find_min_clique(adj, scores, source, k, valid=None, prune=True, stats=None):
    cand = _ref_out(adj, source, valid)
    if len(cand) < k - 1:
        return None
    best: list = [None, None]
    _ref_min_rec(adj, scores, cand, k - 1, (source,), scores.get(source, 0),
                 best, valid, prune, stats)
    return None if best[0] is None else (int(best[0]), best[1])


def _ref_min_rec(adj, scores, cand, need, prefix, s_cur, best, valid, prune, stats):
    if stats is not None:
        stats["visited"] = stats.get("visited", 0) + len(cand)
    if need == 1:
        for c in cand:
            c = int(c)
            s = s_cur + scores.get(c, 0)
            if prune and best[0] is not None and s > best[0]:
                continue
            members = tuple(sorted(prefix + (c,)))
            if best[0] is None or (s, members) < (best[0], best[1]):
                best[0], best[1] = s, members
        return
    for v in cand:
        v = int(v)
        s_v = s_cur + scores.get(v, 0)
        if prune and best[0] is not None and s_v > best[0]:
            continue
        nxt = np.intersect1d(cand, _ref_out(adj, v, valid), assume_unique=True)
        if len(nxt) >= need - 1:
            _ref_min_rec(adj, scores, nxt, need - 1, prefix + (v,), s_v, best, valid, prune, stats)


def ref_local(adj, source, valid, need, undirected=False):
    """The local subgraph the bitset kernels searched before the oriented
    table: ``(ids, masks)`` over the valid out-neighbours of node id
    ``source`` in ascending id, built with one set intersection per
    out-neighbour, or None if fewer than ``need`` are valid. ``valid`` is
    indexed by node id."""
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


def as_dict(table):
    """An ``adjacency.Oriented`` table as ``{u: sorted N+(u) ids}`` over
    the nodes with out-neighbours: the form the reference oracles take."""
    nodes, ptr = table.nodes, table.ptr
    return {int(nodes[p]): nodes[table.ind[ptr[p]:ptr[p + 1]]]
            for p in np.flatnonzero(np.diff(ptr)).tolist()}


def ref_rank_by_degree(edges):
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[int(u)] = deg.get(int(u), 0) + 1
        deg[int(v)] = deg.get(int(v), 0) + 1
    return {u: i for i, u in enumerate(sorted(deg, key=lambda x: (deg[x], x)))}


def ref_rank_from_scores(scores, nodes):
    ordered = sorted(nodes, key=lambda x: (scores.get(x, 0), x))
    return {u: i for i, u in enumerate(ordered)}


def ref_orient_by_rank(edges, rank):
    out: dict[int, list[int]] = {}
    for u, v in edges:
        u, v = int(u), int(v)
        src, dst = (u, v) if rank[u] > rank[v] else (v, u)
        out.setdefault(src, []).append(dst)
    return {u: np.asarray(sorted(nb), dtype=np.int64) for u, nb in out.items()}


def ref_clique_arcs(edges, rank, k):
    """The table ``Prepared`` keeps for ``edges`` oriented by ``{id:
    rank}``, built from adjacency sets: ``{u: (kept N+(u) ids, triangle
    rows)}`` over the nodes with a kept arc. Arc ``u -> x`` is kept iff
    |N(x) & N+(u)| >= k-2; u's rows are the pairs ``(i, j)`` of local
    indices into its kept out-neighbours, in ascending order, with an
    arc from the i-th to the j-th in the whole orientation."""
    nb: dict[int, set[int]] = {}
    for u, v in edges:
        nb.setdefault(int(u), set()).add(int(v))
        nb.setdefault(int(v), set()).add(int(u))
    out = {}
    for u in sorted(nb):
        up = {x for x in nb[u] if rank[u] > rank[x]}
        kept = sorted(x for x in up if len(nb[x] & up) >= k - 2)
        if kept:
            rows = [(i, j) for i, x in enumerate(kept) for j, y in enumerate(kept)
                    if y in nb[x] and rank[x] > rank[y]]
            out[u] = (kept, rows)
    return out


def as_rows(table):
    """An ``adjacency.Oriented`` table in ``ref_clique_arcs``'s form."""
    ids, ptr, tptr = table.nodes.tolist(), table.ptr, table.tptr
    return {ids[p]: ([ids[x] for x in table.ind[ptr[p]:ptr[p + 1]].tolist()],
                     [tuple(r) for r in table.tri[tptr[p]:tptr[p + 1]].tolist()])
            for p in np.flatnonzero(np.diff(ptr) | np.diff(tptr)).tolist()}


# ---- Catalyst listing oracle: an independent engine for the kernel path.

def list_kcliques_joins(edges_df: DataFrame, k: int) -> DataFrame:
    """Catalyst-only reference listing via iterated self-joins on the
    id-oriented edge table (u < v). Output columns ``m0..m{k-1}`` in
    ascending id. O(k^2) joins — small graphs only."""
    e = edges_df.select(F.col("src").alias("a"), F.col("dst").alias("b"))
    cliques = e.select(F.col("a").alias("m0"), F.col("b").alias("m1"))
    for i in range(2, k):
        last = f"m{i-1}"
        ext = cliques.join(
            e.select(F.col("a").alias(last), F.col("b").alias(f"m{i}")), last
        )
        # The new node must be adjacent to every earlier member too.
        for j in range(i - 1):
            ext = ext.join(
                e.select(F.col("a").alias(f"m{j}"), F.col("b").alias(f"m{i}")),
                [f"m{j}", f"m{i}"],
                "left_semi",
            )
        cliques = ext.select(*[f"m{j}" for j in range(i + 1)])
    return cliques


# ---- candidate-index refresh oracle: the full recompute that the delta
# refresh in ``repro.dynamic.swap`` replaced. The lockstep test runs it on
# a copy of the state before every refresh and requires the same index and
# the same ``gained`` set, iteration order included.

def ref_refresh_candidates(state, touched_nodes):
    """Recompute candidate sets of every owner whose neighbourhood
    touches ``touched_nodes``; return owners that gained candidates."""
    owners = set()
    for x in touched_nodes:
        if not state.is_free(x):
            owners.add(state.node2c[x])
        for w in state.adj.get(x, ()):  # cliques seeing x in their N_F
            if not state.is_free(w):
                owners.add(state.node2c[w])
    gained = set()
    for c in owners:
        if c not in state.S:
            continue
        old = state.cand.get(c, set())
        new = index_mod.candidates_for(state, c)
        state.cand[c] = new
        if new - old:
            gained.add(c)
    return gained


# ---- exact MIS oracle: the dict-of-sets branch and bound that the bitset
# solver in ``repro.core.mis`` replaced. It copies the adjacency at every
# search node and prunes on |chosen| + |live| only; the property tests
# require the bitset solver to return the identical set.

def ref_exact_mis(adj, budget=None):
    live = {u: set(nb) for u, nb in adj.items()}
    best = [set()]
    _ref_mis_rec(live, set(), best, budget)
    return best[0]


def _ref_mis_rec(live, chosen, best, budget):
    if budget is not None:
        budget.check_time()
    # Reductions: repeatedly take degree-0 and degree-1 nodes.
    changed = True
    live = {u: set(nb) for u, nb in live.items()}
    chosen = set(chosen)
    while changed:
        changed = False
        for u in list(live):
            if u not in live:
                continue
            deg = len(live[u])
            if deg == 0:
                chosen.add(u)
                del live[u]
                changed = True
            elif deg == 1:
                chosen.add(u)
                v = next(iter(live[u]))
                _ref_drop(live, v)
                del live[u]
                changed = True
    if not live:
        if len(chosen) > len(best[0]):
            best[0] = chosen
        return
    if len(chosen) + len(live) <= len(best[0]):
        return  # cannot beat incumbent
    v = max(live, key=lambda u: (len(live[u]), u))
    # Branch 1: take v, drop N(v).
    l1 = {u: set(nb) for u, nb in live.items()}
    for w in list(l1[v]):
        _ref_drop(l1, w)
    del l1[v]
    _ref_mis_rec(l1, chosen | {v}, best, budget)
    # Branch 2: exclude v.
    l2 = {u: set(nb) for u, nb in live.items()}
    _ref_drop(l2, v)
    _ref_mis_rec(l2, chosen, best, budget)


def _ref_drop(live, u):
    if u not in live:
        return
    for w in live[u]:
        live[w].discard(u)
    del live[u]
