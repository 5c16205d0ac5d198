"""OPT: exact maximum disjoint k-clique set via clique graph + MIS.

The straightforward pipeline from Section I the paper argues is
impractical: (i) list all k-cliques, (ii) build the clique graph,
(iii) exact MIS on it. We run (i)-(ii) as Spark jobs over the driver's
:class:`~repro.core.prepare.Prepared` (the cliques are listed once and
checkpointed) and (iii) on the driver, under a Budget that reproduces
the paper's OOM (too many cliques / clique-graph edges) and OOT (exact
MIS) cells.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_graph, clique_listing
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
from repro.core.mis import exact_mis
from repro.core.prepare import Prepared
from repro.core.scores import clique_id_col
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
        cg_pdf = cg.toPandas()
        ids_pdf = cliques_df.withColumn("cid", clique_id_col(k)).toPandas()
    except (SimulatedOOM, SimulatedOOT):
        raise
    except Exception as exc:
        raise translate_spark_error(exc) from exc

    members: dict[str, tuple[int, ...]] = {}
    cols = clique_listing.member_cols(k)
    for row in ids_pdf.itertuples(index=False):
        members[getattr(row, "cid")] = tuple(int(getattr(row, c)) for c in cols)
    adj: dict[str, set[str]] = {cid: set() for cid in members}
    for row in cg_pdf.itertuples(index=False):
        adj[row.cid1].add(row.cid2)
        adj[row.cid2].add(row.cid1)
    chosen = exact_mis(adj, budget=budget)
    S = sorted(members[cid] for cid in chosen)
    return OptResult("OK", S, n_cliques=len(members), n_cg_edges=len(cg_pdf))


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
