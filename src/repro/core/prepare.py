"""Driver-side preparation shared by every algorithm and both backends.

HG, GC, L/LP, OPT, Table I's count and the dynamic harnesses take a
``Prepared`` and start from the same sequence on a numpy edge array:
degree ordering -> DAG orientation -> node scores (Def. 5) -> score
ordering (Algorithm 3 line 3) -> DAG orientation. Spark, when given,
only fans out the per-source work over these tables.
``Prepared(edges, k)`` runs the sequence once per (graph, k); each
stage is computed on first use, so HG, which needs only the degree
orientation, never counts, and only L/LP reaches the score ordering and
its orientation (``rank``, ``adj``): clique listing emits sorted member
tuples, so GC and OPT list on the degree orientation.

Each orientation is one :class:`~repro.graphs.adjacency.Oriented`
table: out-neighbour CSR plus the orientation's triangles as a second
per-source CSR of local pairs, found once by a vectorized wedge check.
Every kernel call builds its local subgraph from those pairs. Both
tables have the same nodes, so a dense position means the same node in
either, and ``valid`` masks are indexed by it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core import kernels
from repro.graphs import adjacency as adj_mod
from repro.graphs.adjacency import Oriented


@dataclass(eq=False)
class Prepared:
    edges: np.ndarray
    k: int

    @cached_property
    def degree_rank(self) -> dict[int, int]:
        return adj_mod.rank_by_degree(self.edges)

    @cached_property
    def degree_adj(self) -> Oriented:
        return adj_mod.orient_by_rank(self.edges, self.degree_rank)

    @cached_property
    def scores(self) -> dict[int, int]:
        """Node scores ``s_n``; nodes in no k-clique are absent (score 0)."""
        adj, counts = self.degree_adj, {}
        for u in adj.sources(self.k).tolist():
            kernels.count_from_source(adj, u, self.k, counts)
        return counts

    @cached_property
    def rank(self) -> dict[int, int]:
        return adj_mod.rank_from_scores(self.scores, self.degree_rank)

    @cached_property
    def adj(self) -> Oriented:
        return adj_mod.orient_by_rank(self.edges, self.rank)
