"""Shared test utilities: small random graphs with known properties, and
the reference oracles the kernels and the Spark listing are checked against."""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

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
