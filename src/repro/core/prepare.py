"""Driver-side preparation shared by the Spark-free algorithms.

Every ``*_numpy`` algorithm and the dynamic harnesses start from the same
sequence on a numpy edge array: degree ordering -> DAG orientation ->
node scores (Def. 5) -> score ordering (Algorithm 3 line 3) -> DAG
orientation. ``Prepared(edges, k)`` runs it once per (graph, k); each stage is
computed on first use, so HG, which needs only the degree orientation,
never counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core import kernels
from repro.graphs import adjacency as adj_mod


@dataclass(eq=False)
class Prepared:
    edges: np.ndarray
    k: int

    @cached_property
    def degree_rank(self) -> dict[int, int]:
        return adj_mod.rank_by_degree(self.edges)

    @cached_property
    def degree_adj(self) -> dict[int, np.ndarray]:
        return adj_mod.orient_by_rank(self.edges, self.degree_rank)

    @cached_property
    def scores(self) -> dict[int, int]:
        """Node scores ``s_n``; nodes in no k-clique are absent (score 0)."""
        counts: dict[int, int] = {}
        for u in self.degree_adj:
            kernels.count_from_source(self.degree_adj, u, self.k, counts)
        return counts

    @cached_property
    def rank(self) -> dict[int, int]:
        return adj_mod.rank_from_scores(self.scores, self.degree_rank)

    @cached_property
    def adj(self) -> dict[int, np.ndarray]:
        return adj_mod.orient_by_rank(self.edges, self.rank)
