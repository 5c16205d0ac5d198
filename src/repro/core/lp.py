"""L / LP — Algorithm 3, the lightweight implementation.

Produces the same S as GC (Theorem 4 — exactly, because we fix the
total clique order to ``(s_c(C), member tuple)`` everywhere) without
ever storing the full clique set:

1. node scores via counting, then the score-based total ordering and
   DAG orientation — the driver's :class:`~repro.core.prepare.Prepared`;
2. ``HeapInit``: for every source node, ``FindMin`` — the minimum-score
   clique rooted there, with the score-driven pruning strategy (LP) or
   without (L); a driver loop over the sources, or one Spark task per
   core when :func:`solve` is given a session
   (:func:`~repro.core.clique_listing.fan_out`);
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
from functools import partial

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing, kernels
from repro.core.budgets import Budget
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


def solve(
    prep: Prepared,
    prune: bool = True,
    budget: Budget | None = None,
    spark: SparkSession | None = None,
) -> LPResult:
    """Run Algorithm 3 (LP when ``prune``, L otherwise); HeapInit runs on
    Spark when ``spark`` is given."""
    k = prep.k
    adj, scores = prep.adj, prep.scores
    deadline = None
    if budget is not None:
        budget.check_time()
        deadline = budget.epoch_deadline
    slices = clique_listing.fan_out(
        spark, adj, k, partial(_heap_init, k=k, prune=prune, deadline=deadline), scores
    )
    heap_rows = [r for rows, _ in slices for r in rows]
    return _calculation(adj, scores, heap_rows, sum(v for _, v in slices), k, prune)


def _heap_init(
    sources: list[int],
    adj: Oriented,
    scores: dict[int, int],
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


def lp(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    prune: bool = True,
    budget: Budget | None = None,
) -> LPResult:
    """:func:`solve` on a Spark edge DataFrame, HeapInit on ``spark``."""
    return solve(Prepared(datasets.df_to_edges(edges_df), k), prune, budget, spark)


def lp_numpy(edges: np.ndarray, k: int, prune: bool = True) -> LPResult:
    """:func:`solve` on the driver on a canonical edge array."""
    return solve(Prepared(edges, k), prune)
