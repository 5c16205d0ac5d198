"""Orderings, DAG orientation, and adjacency materialization.

All static algorithms in the paper share the same preparation: pick a
total node ordering ``eta``, orient each undirected edge from the
higher-``eta`` endpoint to the lower one (``u -> v`` iff
``eta(u) > eta(v)``), and enumerate each k-clique exactly once from
its highest-``eta`` member. Orderings and orientation are computed
with the DataFrame API (window rank + joins); the oriented adjacency
is then collected into a dict of sorted numpy arrays, which is what
the enumeration kernels (driver-side and broadcast to ``mapInPandas``
workers) consume. The driver-only paths (``*_numpy`` algorithms, the
dynamic code) rank and orient the numpy edge array directly with the
same ties.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def nodes_df(edges_df: DataFrame) -> DataFrame:
    """All distinct node ids appearing in the edge list."""
    return (
        edges_df.select(F.col("src").alias("node"))
        .union(edges_df.select(F.col("dst").alias("node")))
        .distinct()
    )


def degrees(edges_df: DataFrame) -> DataFrame:
    """Per-node degree: ``(node, degree)``."""
    both = edges_df.select(F.col("src").alias("node")).union(
        edges_df.select(F.col("dst").alias("node"))
    )
    return both.groupBy("node").agg(F.count("*").alias("degree"))


def ordering_by_degree(edges_df: DataFrame) -> DataFrame:
    """Total ordering ``(node, rank)``: larger degree => larger rank,
    ties broken by node id (Section IV-A's degree ordering)."""
    w = Window.orderBy(F.col("degree").asc(), F.col("node").asc())
    return degrees(edges_df).select(
        "node", (F.row_number().over(w) - F.lit(1)).alias("rank")
    )


def ordering_from_scores(scores_df: DataFrame) -> DataFrame:
    """Total ordering from node scores (Algorithm 3 line 3):
    ``eta(u) < eta(v)  =>  s_n(u) <= s_n(v)``; ties by node id."""
    w = Window.orderBy(F.col("score").asc(), F.col("node").asc())
    return scores_df.select(
        "node", (F.row_number().over(w) - F.lit(1)).alias("rank")
    )


def oriented_edges(edges_df: DataFrame, ordering: DataFrame) -> DataFrame:
    """Directed version of the graph: ``(src, dst)`` with
    ``rank(src) > rank(dst)`` — out-neighbours have smaller ordering,
    exactly Algorithm 1 line 3."""
    r = ordering
    e = (
        edges_df.join(r.withColumnRenamed("node", "src").withColumnRenamed("rank", "r_src"), "src")
        .join(r.withColumnRenamed("node", "dst").withColumnRenamed("rank", "r_dst"), "dst")
    )
    return e.select(
        F.when(F.col("r_src") > F.col("r_dst"), F.col("src")).otherwise(F.col("dst")).alias("src"),
        F.when(F.col("r_src") > F.col("r_dst"), F.col("dst")).otherwise(F.col("src")).alias("dst"),
    )


def collect_out_adjacency(oriented_df: DataFrame) -> dict[int, np.ndarray]:
    """Oriented out-adjacency as ``{u: sorted int64 array of N+(u)}``.

    This is the structure the enumeration kernels build their per-source
    bitset subgraphs from, both on the driver and inside
    ``mapInPandas`` tasks via a broadcast.
    """
    pdf = oriented_df.toPandas()
    return _group_sorted(pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64))


def _group_sorted(key: np.ndarray, val: np.ndarray) -> dict[int, np.ndarray]:
    """``{key: sorted values}``; the arrays are views of one buffer."""
    order = np.lexsort((val, key))
    key, val = key[order], val[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(key)).tolist()
    return {u: val[s:e] for u, s, e in zip(key[starts].tolist(), starts.tolist(), ends)}


# ---- driver-side (numpy, no Spark) helpers shared by the dynamic code ----

def adj_sets(edges: np.ndarray) -> dict[int, set[int]]:
    """Undirected adjacency as mutable ``{u: set(neighbours)}`` — the
    representation the dynamic-maintenance code mutates per edge."""
    out: dict[int, set[int]] = {}
    for u, v in edges:
        out.setdefault(int(u), set()).add(int(v))
        out.setdefault(int(v), set()).add(int(u))
    return out


def orient_by_rank(edges: np.ndarray, rank: dict[int, int]) -> dict[int, np.ndarray]:
    """Driver-side DAG orientation: ``u -> v`` iff ``rank[u] > rank[v]``.
    Returns out-adjacency arrays sorted by node id."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    nodes = np.fromiter(rank.keys(), dtype=np.int64, count=len(rank))
    ranks = np.fromiter(rank.values(), dtype=np.int64, count=len(rank))
    order = np.argsort(nodes)
    nodes, ranks = nodes[order], ranks[order]
    u, v = edges[:, 0], edges[:, 1]
    up = ranks[np.searchsorted(nodes, u)] > ranks[np.searchsorted(nodes, v)]
    return _group_sorted(np.where(up, u, v), np.where(up, v, u))


def rank_by_degree(edges: np.ndarray) -> dict[int, int]:
    """Driver-side degree ordering with id tie-break (matches
    :func:`ordering_by_degree`)."""
    nodes, deg = np.unique(np.asarray(edges, dtype=np.int64), return_counts=True)
    return _ranks(nodes[np.lexsort((nodes, deg))])


def rank_from_scores(scores: dict[int, int], nodes) -> dict[int, int]:
    """Driver-side score ordering with id tie-break (matches
    :func:`ordering_from_scores`); a node without a score counts as 0."""
    nodes = np.fromiter(nodes, dtype=np.int64)
    score = np.fromiter((scores.get(v, 0) for v in nodes.tolist()), dtype=np.int64, count=len(nodes))
    return _ranks(nodes[np.lexsort((nodes, score))])


def _ranks(ordered: np.ndarray) -> dict[int, int]:
    """``{node: position}``, built in rank order."""
    return dict(zip(ordered.tolist(), range(len(ordered))))
