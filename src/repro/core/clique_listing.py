"""Distributed k-clique listing, and Table I's clique count.

- :func:`fan_out` — the Spark layer of the per-source phases (LP's
  HeapInit, GC's listing): one job with one task per core, each running
  a kernel loop over its slice of the source nodes against broadcasts.

- :func:`list_kcliques` — GC's listing: broadcast the degree-oriented
  adjacency of a driver :class:`~repro.core.prepare.Prepared` and fan
  the per-source kClist recursion out with :func:`fan_out`.

- :func:`count_kcliques` — Table I's count, Σ s_n / k from the driver's
  node scores (``Prepared.scores``): counting never materializes
  cliques, which is what makes Algorithm 3 "lightweight".
"""
from __future__ import annotations

import random
from typing import Callable, TypeVar

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import kernels
from repro.core.budgets import Budget
from repro.core.prepare import Prepared
from repro.graphs import datasets
from repro.graphs.adjacency import Oriented

T = TypeVar("T")


def fan_out(
    spark: SparkSession,
    adj: Oriented,
    k: int,
    run_slice: Callable[[list[int]], T],
) -> list[T]:
    """``run_slice`` over the dense positions of the nodes that can root
    a k-clique (out-degree >= k-1), as one Spark job with one task per
    core: the sources are shuffled with a fixed seed, so hubs spread over
    the slices, and dealt into ``defaultParallelism`` slices; one result
    per slice comes back (empty slices included). Each slice is one element of its own
    partition: ``parallelize`` cuts a flat list into partitions by
    serialization batches of up to 1024 elements, not evenly."""
    srcs = adj.sources(k).tolist()
    random.Random(0).shuffle(srcs)
    sc = spark.sparkContext
    n = sc.defaultParallelism
    return sc.parallelize([srcs[i::n] for i in range(n)], n).map(run_slice).collect()


def list_kcliques(
    spark: SparkSession, prep: Prepared, budget: Budget | None = None
) -> np.ndarray:
    """All k-cliques of the graph as an int64 array, one row each:
    members ``m0 < m1 < ... < m{k-1}`` (node-id order — the canonical
    clique identity), then ``score`` = s_c(C) (Def. 6) from
    ``prep.scores``. Each clique is listed exactly once, rooted at its
    highest-ordering member of the degree orientation."""
    k = prep.k
    sc = spark.sparkContext
    bc_adj, bc_scores = sc.broadcast(prep.degree_adj), sc.broadcast(prep.scores)
    deadline = budget.epoch_deadline if budget is not None else None

    def run_slice(srcs: list[int]) -> np.ndarray:
        adj, scores = bc_adj.value, bc_scores.value
        cliques: list[tuple[int, ...]] = []
        for src in srcs:
            kernels.enumerate_from_source(adj, src, k, out=cliques, deadline=deadline)
        rows = [c + (sum(map(scores.__getitem__, c)),) for c in cliques]
        return np.array(rows, dtype=np.int64).reshape(-1, k + 1)

    return np.concatenate(fan_out(spark, prep.degree_adj, k, run_slice))


def count_kcliques(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
) -> int:
    """Total number of k-cliques: sum of node scores divided by k
    (every clique contributes once per member)."""
    total = sum(Prepared(datasets.df_to_edges(edges_df), k).scores.values())
    assert total % k == 0, "sum of node scores must be divisible by k"
    n = total // k
    if budget is not None:
        budget.check_count(n)
        budget.check_time()
    return n
