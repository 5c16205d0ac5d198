"""Total orderings, DAG orientation and adjacency materialization (numpy).

All static algorithms in the paper share the same preparation: pick a
total node ordering ``eta``, orient each undirected edge from the
higher-``eta`` endpoint to the lower one (``u -> v`` iff
``eta(u) > eta(v)``), and enumerate each k-clique exactly once from
its highest-``eta`` member. Both orderings (degree, then node score)
and the orientation are computed on the driver from the numpy edge
array; the result is a dict of sorted numpy out-neighbour arrays, which
is what the enumeration kernels consume on the driver and, broadcast,
in ``mapInPandas`` tasks. ``repro.core.prepare.Prepared`` runs the
sequence once per (graph, k) for both backends.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame


# No caller; kept because perfbench.tracing.LAYERS looks this name up.
def collect_out_adjacency(oriented_df: DataFrame) -> dict[int, np.ndarray]:
    """Oriented ``(src, dst)`` DataFrame as ``{u: sorted N+(u)}``."""
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


def adj_sets(edges: np.ndarray) -> dict[int, set[int]]:
    """Undirected adjacency as mutable ``{u: set(neighbours)}`` — the
    representation the dynamic-maintenance code mutates per edge."""
    out: dict[int, set[int]] = {}
    for u, v in edges:
        out.setdefault(int(u), set()).add(int(v))
        out.setdefault(int(v), set()).add(int(u))
    return out


def orient_by_rank(edges: np.ndarray, rank: dict[int, int]) -> dict[int, np.ndarray]:
    """DAG orientation (Algorithm 1 line 3): ``u -> v`` iff
    ``rank[u] > rank[v]``. Returns out-adjacency arrays sorted by node id."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    nodes = np.fromiter(rank.keys(), dtype=np.int64, count=len(rank))
    ranks = np.fromiter(rank.values(), dtype=np.int64, count=len(rank))
    order = np.argsort(nodes)
    nodes, ranks = nodes[order], ranks[order]
    u, v = edges[:, 0], edges[:, 1]
    up = ranks[np.searchsorted(nodes, u)] > ranks[np.searchsorted(nodes, v)]
    return _group_sorted(np.where(up, u, v), np.where(up, v, u))


def rank_by_degree(edges: np.ndarray) -> dict[int, int]:
    """Degree ordering (Section IV-A): larger degree => larger rank,
    ties broken by node id."""
    nodes, deg = np.unique(np.asarray(edges, dtype=np.int64), return_counts=True)
    return _ranks(nodes[np.lexsort((nodes, deg))])


def rank_from_scores(scores: dict[int, int], nodes) -> dict[int, int]:
    """Score ordering (Algorithm 3 line 3): ``eta(u) < eta(v)  =>
    s_n(u) <= s_n(v)``, ties by node id; a node without a score counts
    as 0."""
    nodes = np.fromiter(nodes, dtype=np.int64)
    score = np.fromiter((scores.get(v, 0) for v in nodes.tolist()), dtype=np.int64, count=len(nodes))
    return _ranks(nodes[np.lexsort((nodes, score))])


def _ranks(ordered: np.ndarray) -> dict[int, int]:
    """``{node: position}``, built in rank order."""
    return dict(zip(ordered.tolist(), range(len(ordered))))
