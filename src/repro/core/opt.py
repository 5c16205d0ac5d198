"""OPT: exact maximum disjoint k-clique set via clique graph + MIS.

The straightforward pipeline from Section I the paper argues is
impractical: (i) list all k-cliques, (ii) build the clique graph,
(iii) exact MIS on it. We run (i)-(ii) as Spark jobs over the driver's
:class:`~repro.core.prepare.Prepared` (the cliques are listed once and
checkpointed) and (iii) on the driver, under a Budget that reproduces
the paper's OOM (too many cliques / clique-graph edges) and OOT (exact
MIS) cells. The MIS vertices are the cliques' member tuples, in the
listing's row order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import clique_graph, clique_listing
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
from repro.core.mis import exact_mis
from repro.core.prepare import Prepared
from repro.graphs import datasets


@dataclass
class OptResult:
    """Outcome of an OPT run: ``status`` is OK / OOM / OOT; ``S`` holds
    the optimal disjoint k-cliques when status is OK."""

    status: str
    S: list[tuple[int, ...]]
    n_cliques: int = 0
    n_cg_edges: int = 0

    @property
    def size(self) -> int:
        return len(self.S)


def opt(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
) -> OptResult:
    """Exact solution with budget-simulated OOM/OOT (see DESIGN.md §3)."""
    try:
        prep = Prepared(datasets.df_to_edges(edges_df), k)
        if budget is not None:
            budget.check_count(sum(prep.scores.values()) // k)
            # Cheap upper bound on clique-graph edges from node scores:
            # cliques sharing node u form a clique of size s_n(u) in the
            # clique graph, so |E(G_C)| <= sum_u C(s_n(u), 2). Guard
            # BEFORE running the explode/self-join — the clique graph
            # is exactly where OPT blows up (Table III).
            budget.check_count(sum(s * (s - 1) // 2 for s in prep.scores.values()))
            budget.check_time()
        cliques_df = clique_listing.list_kcliques(spark, prep).localCheckpoint()
        cg = clique_graph.clique_graph_edges(cliques_df, k).localCheckpoint()
        if budget is not None:
            budget.check_count(cg.count())
            budget.check_time()
        cols = clique_listing.member_cols(k)
        ends = [F.col(f"{end}.{c}").alias(f"{end}_{c}") for end in ("cid1", "cid2") for c in cols]
        pairs = cg.select(*ends).toPandas().to_numpy(np.int64).tolist()
        cliques = cliques_df.select(*cols).toPandas().to_numpy(np.int64).tolist()
    except (SimulatedOOM, SimulatedOOT):
        raise
    except Exception as exc:
        raise translate_spark_error(exc) from exc

    # exact_mis reduces in dict order and breaks ties by (degree, vertex),
    # so S depends on the insertion order: keep the listing's row order.
    adj: dict[tuple[int, ...], set[tuple[int, ...]]] = {tuple(c): set() for c in cliques}
    for row in pairs:
        a, b = tuple(row[:k]), tuple(row[k:])
        adj[a].add(b)
        adj[b].add(a)
    S = sorted(exact_mis(adj, budget=budget))
    return OptResult("OK", S, n_cliques=len(adj), n_cg_edges=len(pairs))


def opt_or_status(
    spark: SparkSession, edges_df: DataFrame, k: int, budget: Budget
) -> OptResult:
    """Harness wrapper: convert budget failures into OOM/OOT rows."""
    try:
        return opt(spark, edges_df, k, budget=budget)
    except SimulatedOOM:
        return OptResult("OOM", [])
    except SimulatedOOT:
        return OptResult("OOT", [])
