"""L / LP — Algorithm 3, the lightweight implementation.

Produces the same S as GC (Theorem 4 — exactly, because we fix the
total clique order to ``(s_c(C), member tuple)`` everywhere) without
ever storing the full clique set:

1. node scores via counting (Spark, no cliques stored);
2. score-based total ordering, DAG orientation (Spark);
3. ``HeapInit``: for every source node in parallel (Spark
   ``mapInPandas``), ``FindMin`` — the minimum-score clique rooted
   there, with the score-driven pruning strategy (LP) or without (L);
4. ``Calculation``: driver min-heap — pop the global minimum; if its
   members are still valid add it to S, otherwise re-run ``FindMin``
   for its source over the remaining valid nodes and push the result.

Step 4's correctness: scores are static, so a still-valid stored local
minimum remains the minimum over the shrinking candidate set; the heap
top is therefore always the global minimum remaining clique.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import clique_listing, kernels
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
from repro.core.prepare import Prepared
from repro.core.scores import collect_scores, score_ordering
from repro.graphs import adjacency as adj_mod

# Score of a HeapInit row whose source roots no clique: clique scores
# are sums of node scores, so never negative.
_NO_CLIQUE = -1


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
        ordering, scores_df = score_ordering(spark, edges_df, k, budget=budget)
        oriented = adj_mod.oriented_edges(edges_df, ordering)
        adj = adj_mod.collect_out_adjacency(oriented)
        scores = collect_scores(scores_df)
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
    adj: dict[int, np.ndarray],
    scores: dict[int, int],
    k: int,
    prune: bool,
    budget: Budget | None,
) -> tuple[list[tuple[int, tuple[int, ...], int]], int]:
    """Parallel ``HeapInit`` (Algorithm 3 lines 10-14): one FindMin per
    source node, fanned out with mapInPandas. Returns the
    ``(score, members, source)`` heap rows and the ``visited`` count
    summed over every source, including those that root no clique."""
    sc = spark.sparkContext
    bc_adj = sc.broadcast(adj)
    bc_scores = sc.broadcast(scores)
    deadline = budget.epoch_deadline if budget is not None else None
    cols = clique_listing.member_cols(k)
    schema = "source long, score long, visited long, " + ", ".join(
        f"{c} long" for c in cols
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        a, s = bc_adj.value, bc_scores.value
        rows = []
        for batch in batches:
            for src in batch["source"].to_numpy(np.int64):
                import time as _t

                if deadline is not None and _t.time() > deadline:
                    from repro.core.budgets import OOT_MARKER

                    raise SimulatedOOT(f"{OOT_MARKER}: HeapInit deadline")
                st: dict = {}
                got = kernels.find_min_clique(
                    a, s, int(src), k, valid=None, prune=prune, stats=st
                )
                score, members = got if got is not None else (_NO_CLIQUE, (0,) * k)
                rows.append((int(src), score, st.get("visited", 0)) + members)
        columns = ["source", "score", "visited"] + cols
        yield (
            pd.DataFrame(rows, columns=columns, dtype="int64")
            if rows
            else pd.DataFrame({c: pd.Series(dtype="int64") for c in columns})
        )

    sources = clique_listing._sources_df(spark, adj, k)
    pdf = sources.mapInPandas(run, schema=schema).toPandas()
    visited = int(pdf["visited"].sum())
    out = []
    for r in pdf[pdf["score"] != _NO_CLIQUE].itertuples(index=False):
        members = tuple(int(getattr(r, c)) for c in cols)
        out.append((int(r.score), members, int(r.source)))
    return out, visited


def _calculation(
    adj: dict[int, np.ndarray],
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
    n_max = 0
    for u, nb in adj.items():
        n_max = max(n_max, u + 1, int(nb.max()) + 1 if len(nb) else 0)
    valid = np.ones(n_max, dtype=bool)
    S: list[tuple[int, ...]] = []
    recomputes = 0
    while heap:
        score, members, src = heapq.heappop(heap)
        if all(valid[list(members)]):
            S.append(members)
            valid[list(members)] = False
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
    """Spark-free Algorithm 3 on a canonical edge array — identical
    ordering/scoring/tie-breaks as the Spark path. Used by fast unit
    tests and as the dynamic module's from-scratch baseline."""
    return lp_driver(Prepared(edges, k), prune)


def lp_driver(prep: Prepared, prune: bool = True) -> LPResult:
    """Algorithm 3 on the driver over a prepared graph: HeapInit as a
    loop over the sources, then ``Calculation``."""
    adj, scores = prep.adj, prep.scores
    heap_rows = []
    visited = 0
    for u in sorted(adj):
        st: dict = {}
        got = kernels.find_min_clique(adj, scores, u, prep.k, None, prune, st)
        visited += st.get("visited", 0)
        if got is not None:
            heap_rows.append((got[0], got[1], u))
    return _calculation(adj, scores, heap_rows, visited, prep.k, prune)
