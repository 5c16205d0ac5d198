"""L / LP — Algorithm 3, the lightweight implementation.

Produces the same S as GC (Theorem 4 — exactly, because we fix the
total clique order to ``(s_c(C), member tuple)`` everywhere) without
ever storing the full clique set:

1. node scores via counting, then the score-based total ordering and
   DAG orientation — the driver's :class:`~repro.core.prepare.Prepared`;
2. ``HeapInit``: for every source node, ``FindMin`` — the minimum-score
   clique rooted there, with the score-driven pruning strategy (LP) or
   without (L); one driver loop over the sources;
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

from repro.core import kernels
from repro.core.budgets import Budget
from repro.core.prepare import Prepared
# Unused; kept because perfbench.tracing.LAYERS looks this name up.
from repro.core.scores import collect_scores  # noqa: F401
from repro.graphs import datasets
from repro.graphs.adjacency import Oriented


@dataclass
class LPResult:
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
) -> LPResult:
    """Run Algorithm 3 (LP when ``prune``, L otherwise).

    ``Calculation`` (lines 31-39) is the loop below, with S as position
    tuples; ``visited`` starts from HeapInit's count.
    """
    k = prep.k
    adj, scores = prep.adj, prep.scores.tolist()
    budget = budget or Budget()
    budget.check_time()
    heap, visited = _heap_init(adj.sources(k).tolist(), adj, scores, k, prune, budget)
    n_heap_init = len(heap)
    heapq.heapify(heap)
    valid = np.ones(adj.n, dtype=bool)
    S: list[tuple[int, ...]] = []
    recomputes = 0
    while heap:
        _, members, src = heapq.heappop(heap)
        at = list(members)
        if valid[at].all():
            S.append(members)
            valid[at] = False
            continue
        # Stale entry: its source may still root other cliques.
        if not valid[src]:
            continue
        budget.check_time()
        recomputes += 1
        seen, got = kernels.find_min_clique(adj, scores, src, k, valid, prune)
        visited += seen
        if got is not None:
            heapq.heappush(heap, (*got, src))
    return LPResult(prep.to_ids(S), n_heap_init=n_heap_init, n_recomputes=recomputes,
                    visited=visited)


def _heap_init(
    sources: list[int],
    adj: Oriented,
    scores: list[int],
    k: int,
    prune: bool,
    budget: Budget,
) -> tuple[list[tuple[int, tuple[int, ...], int]], int]:
    """One FindMin per source: the ``(score, members, source)`` heap rows,
    all over positions, and the ``visited`` count summed over every
    source, including those that root no clique."""
    rows = []
    visited = 0
    for u in sources:
        budget.check_time()
        seen, got = kernels.find_min_clique(adj, scores, u, k, None, prune)
        visited += seen
        if got is not None:
            rows.append((*got, u))
    return rows, visited


def lp(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    prune: bool = True,
    budget: Budget | None = None,
) -> LPResult:
    """:func:`solve` on a Spark edge DataFrame, collected to the driver."""
    return solve(Prepared(datasets.df_to_edges(edges_df), k), prune, budget)


def lp_numpy(edges: np.ndarray, k: int, prune: bool = True) -> LPResult:
    """:func:`solve` on a canonical edge array."""
    return solve(Prepared(edges, k), prune)
