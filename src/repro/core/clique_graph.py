"""The clique graph (Def. 2): condensed graph over k-cliques.

Nodes are k-cliques; an edge joins two cliques that share at least one
graph node. Built with DataFrame explode + self-join. A clique's id
is the struct of its member columns ``m0 < ... < m{k-1}``, so ids
compare as member tuples do. Only OPT (and the Theorem-2 bound tests)
need this — the paper's point is that the proposed algorithms avoid
materializing it.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import clique_listing


def clique_graph_edges(cliques_df: DataFrame, k: int) -> DataFrame:
    """``(cid1, cid2)`` with cid1 < cid2: pairs of non-disjoint cliques,
    each id the struct of the clique's member columns."""
    cols = clique_listing.member_cols(k)
    ex = cliques_df.select(F.struct(*cols).alias("cid"), F.explode(F.array(*cols)).alias("node"))
    pairs = (
        ex.alias("a")
        .join(ex.alias("b"), F.col("a.node") == F.col("b.node"))
        .where(F.col("a.cid") < F.col("b.cid"))
        .select(F.col("a.cid").alias("cid1"), F.col("b.cid").alias("cid2"))
        .distinct()
    )
    return pairs


def clique_degrees(cg_edges: DataFrame, cliques_with_id: DataFrame) -> DataFrame:
    """Clique degree (Def. 4) for every clique, 0 for isolated ones."""
    both = cg_edges.select(F.col("cid1").alias("cid")).union(
        cg_edges.select(F.col("cid2").alias("cid"))
    )
    deg = both.groupBy("cid").agg(F.count("*").alias("cdeg"))
    return (
        cliques_with_id.select("cid")
        .distinct()
        .join(deg, "cid", "left")
        .select("cid", F.coalesce(F.col("cdeg"), F.lit(0)).alias("cdeg"))
    )
