"""HG — Algorithm 1, the basic framework.

Process nodes in ascending total order; for each still-valid node with
enough valid out-neighbours, take the *first* k-clique found among its
out-neighbourhood (``FindOne``), add it to S, and invalidate its
members. Degree/ordering preparation and orientation run as Spark
DataFrame jobs; the main loop is inherently sequential (each selection
prunes later ones) and runs on the driver over the collected oriented
adjacency — see DESIGN.md §2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import kernels
from repro.core.prepare import Prepared
from repro.graphs import adjacency as adj_mod


@dataclass
class HGResult:
    S: list[tuple[int, ...]]
    n_inspected: int = 0

    @property
    def size(self) -> int:
        return len(self.S)


def hg(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    ordering: DataFrame | None = None,
) -> HGResult:
    """Run Algorithm 1. Default ordering is the degree ordering
    (larger degree => larger rank), the variant the paper benchmarks
    as HG."""
    if ordering is None:
        ordering = adj_mod.ordering_by_degree(edges_df)
    oriented = adj_mod.oriented_edges(edges_df, ordering)
    adj = adj_mod.collect_out_adjacency(oriented)
    order_pdf = ordering.orderBy(F.col("rank").asc()).toPandas()
    nodes_in_order = order_pdf["node"].to_numpy(np.int64)
    return hg_driver_from_oriented(adj, nodes_in_order, k)


def hg_driver_from_oriented(
    adj: dict[int, np.ndarray], nodes_in_order: np.ndarray, k: int
) -> HGResult:
    """Driver loop of Algorithm 1 over a prepared oriented adjacency.

    ``nodes_in_order`` must be ascending in the same total order used
    to orient ``adj``; validity masking implements node removal.
    """
    n_max = int(nodes_in_order.max()) + 1 if len(nodes_in_order) else 0
    valid = np.ones(n_max, dtype=bool)
    S: list[tuple[int, ...]] = []
    inspected = 0
    for u in nodes_in_order:
        u = int(u)
        if not valid[u]:
            continue
        inspected += 1
        clique = kernels.find_first_clique(adj, u, k, valid)
        if clique is not None:
            S.append(clique)
            for v in clique:
                valid[v] = False
    return HGResult(S, n_inspected=inspected)


def hg_numpy(edges: np.ndarray, k: int) -> HGResult:
    """Spark-free HG on a canonical numpy edge array (same degree
    ordering, same result) — used by fast unit tests and the dynamic
    module's from-scratch comparisons."""
    prep = Prepared(edges, k)
    rank = prep.degree_rank
    nodes = np.asarray(sorted(rank, key=rank.__getitem__), dtype=np.int64)
    return hg_driver_from_oriented(prep.degree_adj, nodes, k)
