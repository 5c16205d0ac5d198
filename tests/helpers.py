"""Shared test utilities: small random graphs with known properties, and
the reference oracles the kernels and the Spark listing are checked against."""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.budgets import Budget, SimulatedOOT
from repro.dynamic import index as index_mod
from repro.graphs import generators as gen


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


def runs(flat, k) -> list[tuple[int, ...]]:
    """The listing kernel's flat runs of ``k`` positions as sorted
    member tuples, in listing order."""
    return [tuple(sorted(flat[i:i + k])) for i in range(0, len(flat), k)]


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
