"""L / LP — Algorithm 3, the lightweight implementation.

Produces the same S as GC (Theorem 4 — exactly, because we fix the
total clique order to ``(s_c(C), member tuple)`` everywhere) without
ever storing the full clique set:

1. node scores via counting, then the score-based total ordering and
   DAG orientation — the driver's :class:`~repro.core.prepare.Prepared`
   on both backends (the Spark entry point collects its edges first);
2. ``HeapInit``: for every source node, ``FindMin`` — the minimum-score
   clique rooted there, with the score-driven pruning strategy (LP) or
   without (L); one Spark task per core by :func:`lp`
   (:func:`~repro.core.clique_listing.fan_out`), a driver loop in
   :func:`lp_driver`;
3. ``Calculation``: driver min-heap — pop the global minimum; if its
   members are still valid add it to S, otherwise re-run ``FindMin``
   for its source over the remaining valid nodes and push the result.

Step 3's correctness: scores are static, so a still-valid stored local
minimum remains the minimum over the shrinking candidate set; the heap
top is therefore always the global minimum remaining clique.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing, kernels
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
from repro.core.prepare import Prepared
# Unused; kept because perfbench.tracing.LAYERS looks this name up.
from repro.core.scores import collect_scores  # noqa: F401
from repro.graphs import datasets
from repro.graphs.adjacency import Oriented


@dataclass
class LPResult:
    status: str
    S: list[tuple[int, ...]]
    n_heap_init: int = 0
    n_recomputes: int = 0
    visited: int = 0  # FindMin recursion candidates — pruning metric

    @property
    def size(self) -> int:
        return len(self.S)


def lp(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    prune: bool = True,
    budget: Budget | None = None,
) -> LPResult:
    """Run Algorithm 3 (LP when ``prune``, L otherwise)."""
    try:
        prep = Prepared(datasets.df_to_edges(edges_df), k)
        adj, scores = prep.adj, prep.scores
        if budget is not None:
            budget.check_time()
        heap_rows, visited = _heap_init_spark(spark, adj, scores, k, prune, budget)
    except (SimulatedOOM, SimulatedOOT):
        raise
    except Exception as exc:
        raise translate_spark_error(exc) from exc
    return _calculation(adj, scores, heap_rows, visited, k, prune)


def _heap_init_spark(
    spark: SparkSession,
    adj: Oriented,
    scores: dict[int, int],
    k: int,
    prune: bool,
    budget: Budget | None,
) -> tuple[list[tuple[int, tuple[int, ...], int]], int]:
    """Parallel ``HeapInit`` (Algorithm 3 lines 10-14): :func:`_heap_init`
    over every slice of the sources, one Spark task per core."""
    sc = spark.sparkContext
    bc_adj, bc_scores = sc.broadcast(adj), sc.broadcast(scores)
    deadline = budget.epoch_deadline if budget is not None else None
    slices = clique_listing.fan_out(
        spark, adj, k,
        lambda srcs: _heap_init(bc_adj.value, bc_scores.value, srcs, k, prune, deadline),
    )
    return [r for rows, _ in slices for r in rows], sum(v for _, v in slices)


def _heap_init(
    adj: Oriented,
    scores: dict[int, int],
    sources: list[int],
    k: int,
    prune: bool,
    deadline: float | None = None,
) -> tuple[list[tuple[int, tuple[int, ...], int]], int]:
    """One FindMin per source (a dense position): the ``(score, members,
    source)`` heap rows and the ``visited`` count summed over every
    source, including those that root no clique."""
    rows = []
    visited = 0
    for u in sources:
        kernels._check_deadline(deadline, "HeapInit")
        st: dict = {}
        got = kernels.find_min_clique(adj, scores, u, k, None, prune, st)
        visited += st.get("visited", 0)
        if got is not None:
            rows.append((got[0], got[1], u))
    return rows, visited


def _calculation(
    adj: Oriented,
    scores: dict[int, int],
    heap_rows: list[tuple[int, tuple[int, ...], int]],
    visited: int,
    k: int,
    prune: bool,
) -> LPResult:
    """Driver ``Calculation`` (Algorithm 3 lines 31-39); ``visited``
    starts from HeapInit's count."""
    heap = list(heap_rows)
    heapq.heapify(heap)
    valid = np.ones(adj.n, dtype=bool)
    S: list[tuple[int, ...]] = []
    recomputes = 0
    while heap:
        score, members, src = heapq.heappop(heap)
        at = adj.pos(members)
        if valid[at].all():
            S.append(members)
            valid[at] = False
            continue
        # Stale entry: its source may still root other cliques.
        if not valid[src]:
            continue
        recomputes += 1
        st: dict = {}
        got = kernels.find_min_clique(adj, scores, src, k, valid, prune, st)
        visited += st.get("visited", 0)
        if got is not None:
            heapq.heappush(heap, (got[0], got[1], src))
    return LPResult("OK", S, n_heap_init=len(heap_rows), n_recomputes=recomputes, visited=visited)


def lp_numpy(edges: np.ndarray, k: int, prune: bool = True) -> LPResult:
    """Spark-free Algorithm 3 on a canonical edge array — the same
    preparation and tie-breaks as the Spark path. Used by fast unit
    tests and as the dynamic module's from-scratch baseline."""
    return lp_driver(Prepared(edges, k), prune)


def lp_driver(prep: Prepared, prune: bool = True) -> LPResult:
    """Algorithm 3 on the driver over a prepared graph: HeapInit as a
    loop over the sources, then ``Calculation``."""
    adj, scores = prep.adj, prep.scores
    heap_rows, visited = _heap_init(adj, scores, adj.sources(prep.k).tolist(), prep.k, prune)
    return _calculation(adj, scores, heap_rows, visited, prep.k, prune)
