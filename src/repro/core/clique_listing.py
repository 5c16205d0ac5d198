"""The per-source fan-out, k-clique listing, and Table I's clique count.

- :func:`fan_out` — the one place that decides where a per-source phase
  (LP's HeapInit, GC's listing) runs: a driver loop over every source,
  or, given a SparkSession, one Spark job with one task per core.

- :func:`list_kcliques` — GC's and OPT's listing: the per-source kClist
  recursion over the degree orientation of a
  :class:`~repro.core.prepare.Prepared`, fanned out by :func:`fan_out`.
  Like the kernels it works on dense positions, so the cliques come
  back as position tuples; ``Prepared.to_ids`` maps them to node ids.

- :func:`count_kcliques` — Table I's count, Σ s_n / k from the driver's
  node scores (``Prepared.scores``): counting never materializes
  cliques, which is what makes Algorithm 3 "lightweight".
"""
from __future__ import annotations

import random
from typing import Callable, TypeVar

from pyspark.sql import SparkSession

from repro.core import kernels
from repro.core.budgets import Budget, translate_spark_error
from repro.core.prepare import Prepared
from repro.graphs.adjacency import Oriented

T = TypeVar("T")


def fan_out(
    spark: SparkSession | None,
    adj: Oriented,
    k: int,
    run_slice: Callable[..., T],
    *shared,
) -> list[T]:
    """``run_slice(sources, adj, *shared)`` over the dense positions of
    the nodes that can root a k-clique (out-degree >= k-1); one result
    per slice.

    Without ``spark`` there is one slice, every source in ascending
    position, run on the driver. With it, one Spark job with one task
    per core: ``adj`` and ``shared`` go to the tasks as broadcasts, the
    sources are shuffled with a fixed seed, so hubs spread over the
    slices, and dealt into ``defaultParallelism`` slices, empty ones
    included. Each slice is one element of its own partition:
    ``parallelize`` cuts a flat list into partitions by serialization
    batches of up to 1024 elements, not evenly. A budget failure inside
    a task comes back as the typed budget exception."""
    srcs = adj.sources(k).tolist()
    if spark is None:
        return [run_slice(srcs, adj, *shared)]
    random.Random(0).shuffle(srcs)
    sc = spark.sparkContext
    n = sc.defaultParallelism
    bcs = [sc.broadcast(x) for x in (adj, *shared)]
    job = sc.parallelize([srcs[i::n] for i in range(n)], n)
    try:
        return job.map(lambda part: run_slice(part, *(b.value for b in bcs))).collect()
    except Exception as exc:
        raise translate_spark_error(exc) from exc


def list_kcliques(
    prep: Prepared, budget: Budget | None = None, spark: SparkSession | None = None
) -> list[tuple[int, ...]]:
    """Every k-clique as its member positions in ascending order (the
    canonical clique identity; ``prep.to_ids`` gives the node ids),
    listed once, from its highest-ordering member of the degree
    orientation; on Spark when ``spark`` is given, the budget checked
    once per source in the tasks too."""
    k = prep.k
    budget = budget or Budget()

    def run_slice(srcs: list[int], adj: Oriented) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for src in srcs:
            budget.check_time()
            kernels.enumerate_from_source(adj, src, k, out=out)
        return out

    return [c for part in fan_out(spark, prep.degree_adj, k, run_slice) for c in part]


def count_kcliques(prep: Prepared, budget: Budget | None = None) -> int:
    """Total number of k-cliques: sum of node scores divided by k
    (every clique contributes once per member)."""
    k = prep.k
    total = int(prep.scores.sum())
    assert total % k == 0, "sum of node scores must be divisible by k"
    n = total // k
    if budget is not None:
        budget.check_count(n)
        budget.check_time()
    return n
