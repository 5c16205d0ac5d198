"""Distributed k-clique listing, and Table I's clique count.

- :func:`list_kcliques` — GC's listing: broadcast the degree-oriented
  adjacency of a driver :class:`~repro.core.prepare.Prepared` and fan
  the per-source kClist recursion out over a partitioned source-node
  DataFrame with ``mapInPandas`` (Arrow).

- :func:`count_kcliques` — Table I's count, Σ s_n / k from the driver's
  node scores (``Prepared.scores``): counting never materializes
  cliques, which is what makes Algorithm 3 "lightweight".
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import kernels
from repro.core.budgets import Budget
from repro.core.prepare import Prepared
from repro.graphs import datasets


def member_cols(k: int) -> list[str]:
    """Canonical member column names for a clique DataFrame."""
    return [f"m{i}" for i in range(k)]


def _sources_df(spark: SparkSession, adj: dict[int, np.ndarray], k: int) -> DataFrame:
    """Nodes that can root a k-clique (out-degree >= k-1), spread over
    partitions so mapInPandas tasks balance."""
    srcs = [int(u) for u, nb in adj.items() if len(nb) >= k - 1]
    pdf = pd.DataFrame({"source": pd.Series(srcs, dtype="int64")})
    n_part = max(1, min(spark.sparkContext.defaultParallelism * 2, max(1, len(srcs) // 4)))
    # Shuffle sources so heavy hubs don't cluster in one partition.
    pdf = pdf.sample(frac=1.0, random_state=0) if len(pdf) else pdf
    return spark.createDataFrame(pdf).repartition(n_part)


def list_kcliques(
    spark: SparkSession, prep: Prepared, budget: Budget | None = None
) -> DataFrame:
    """All k-cliques of the graph, one row each: member columns
    ``m0 < m1 < ... < m{k-1}`` (node-id order — the canonical clique
    identity) and ``score`` = s_c(C) (Def. 6) from ``prep.scores``. Each
    clique is produced exactly once, rooted at its highest-ordering
    member of the degree orientation."""
    k = prep.k
    sc = spark.sparkContext
    bc_adj, bc_scores = sc.broadcast(prep.degree_adj), sc.broadcast(prep.scores)
    deadline = budget.epoch_deadline if budget is not None else None
    cols = member_cols(k) + ["score"]

    def enum_batches(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        adj, scores = bc_adj.value, bc_scores.value
        for batch in batches:
            cliques: list[tuple[int, ...]] = []
            for src in batch["source"].to_numpy(np.int64):
                kernels.enumerate_from_source(adj, int(src), k, out=cliques, deadline=deadline)
            rows = [c + (sum(map(scores.__getitem__, c)),) for c in cliques]
            yield pd.DataFrame(rows, columns=cols, dtype="int64")

    sources = _sources_df(spark, prep.degree_adj, k)
    return sources.mapInPandas(enum_batches, schema=", ".join(f"{c} long" for c in cols))


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

