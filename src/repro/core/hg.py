"""HG — Algorithm 1, the basic framework.

Process nodes in ascending total order; for each still-valid node with
enough valid out-neighbours, take the *first* k-clique found among its
out-neighbourhood (``FindOne``), add it to S, and invalidate its
members. The main loop is inherently sequential (each selection
prunes later ones), so :func:`solve` runs it on the driver over the
degree orientation of a :class:`~repro.core.prepare.Prepared` — see
DESIGN.md §2.
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


def hg_driver_from_oriented(adj: Oriented, order: np.ndarray, k: int) -> HGResult:
    """Driver loop of Algorithm 1 over a prepared oriented table, with S
    as position tuples.

    ``order`` holds the positions ascending in the same total order used
    to orient ``adj``; validity masking implements node removal. A node
    with fewer than k-1 out-neighbours roots no clique, so it counts as
    inspected without a ``FindOne`` call.
    """
    valid = np.ones(adj.n, dtype=bool)
    can_root = (np.diff(adj.ptr) >= k - 1).tolist()
    S: list[tuple[int, ...]] = []
    inspected = 0
    for u in order.tolist():
        if not valid[u]:
            continue
        inspected += 1
        if not can_root[u]:
            continue
        clique = kernels.find_first_clique(adj, u, k, valid)
        if clique is not None:
            S.append(clique)
            valid[list(clique)] = False
    return HGResult(S, n_inspected=inspected)


def solve(prep: Prepared) -> HGResult:
    """Run Algorithm 1 with the degree ordering (larger degree =>
    larger rank), the variant the paper benchmarks as HG."""
    res = hg_driver_from_oriented(prep.degree_adj, np.argsort(prep.degree_rank), prep.k)
    res.S = prep.to_ids(res.S)
    return res


def hg(spark: SparkSession, edges_df: DataFrame, k: int) -> HGResult:
    """:func:`solve` on a Spark edge DataFrame."""
    return solve(Prepared(datasets.df_to_edges(edges_df), k))


def hg_numpy(edges: np.ndarray, k: int) -> HGResult:
    """:func:`solve` on a canonical edge array."""
    return solve(Prepared(edges, k))
