"""HG — Algorithm 1, the basic framework.

Process nodes in ascending total order; for each still-valid node with
enough valid out-neighbours, take the *first* k-clique found among its
out-neighbourhood (``FindOne``), add it to S, and invalidate its
members. The main loop is inherently sequential (each selection
prunes later ones), so both entry points run it on the driver over the
degree orientation of a :class:`~repro.core.prepare.Prepared`; the
Spark entry point only collects its edge DataFrame — see DESIGN.md §2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import kernels
from repro.core.prepare import Prepared
from repro.graphs import datasets
from repro.graphs.adjacency import Oriented


@dataclass
class HGResult:
    S: list[tuple[int, ...]]
    n_inspected: int = 0

    @property
    def size(self) -> int:
        return len(self.S)


def hg(spark: SparkSession, edges_df: DataFrame, k: int) -> HGResult:
    """Run Algorithm 1 with the degree ordering (larger degree =>
    larger rank), the variant the paper benchmarks as HG."""
    return hg_numpy(datasets.df_to_edges(edges_df), k)


def hg_driver_from_oriented(
    adj: Oriented, nodes_in_order: np.ndarray, k: int
) -> HGResult:
    """Driver loop of Algorithm 1 over a prepared oriented table.

    ``nodes_in_order`` holds node ids ascending in the same total order
    used to orient ``adj``; validity masking (over dense positions)
    implements node removal.
    """
    valid = np.ones(adj.n, dtype=bool)
    S: list[tuple[int, ...]] = []
    inspected = 0
    for u in adj.pos(nodes_in_order).tolist():
        if not valid[u]:
            continue
        inspected += 1
        clique = kernels.find_first_clique(adj, u, k, valid)
        if clique is not None:
            S.append(clique)
            valid[adj.pos(clique)] = False
    return HGResult(S, n_inspected=inspected)


def hg_numpy(edges: np.ndarray, k: int) -> HGResult:
    """HG on a canonical numpy edge array — used by :func:`hg`, fast
    unit tests and the dynamic module's from-scratch comparisons."""
    prep = Prepared(edges, k)
    rank = prep.degree_rank
    nodes = np.asarray(sorted(rank, key=rank.__getitem__), dtype=np.int64)
    return hg_driver_from_oriented(prep.degree_adj, nodes, k)
