"""Driver-side preparation shared by every algorithm.

HG, GC, L/LP, OPT, Table I's count and the dynamic harnesses take a
``Prepared`` and start from the same sequence on a numpy edge array:
degree ordering -> DAG orientation -> node scores (Def. 5) -> score
ordering (Algorithm 3 line 3) -> DAG orientation.
``Prepared(edges, k)`` runs the sequence once per (graph, k); the node
ids, the edges' positions and the degree ordering are found at
construction, and each later stage is computed on first use, so HG,
which needs only the degree orientation, never counts, and only L/LP
reaches the score ordering and its orientation (``rank``, ``adj``):
clique listing emits sorted member tuples, so GC and OPT list on the
degree orientation.

The edges' endpoints become positions once (one ``np.unique`` for the
ids, then the C id map :func:`~repro.graphs.adjacency.positions`), and
each orientation is built from them by one C call
(:func:`~repro.graphs.adjacency.orient_by_rank`) into an
:class:`~repro.graphs.adjacency.Oriented` table: out-neighbour CSR plus
the orientation's triangles as a second per-source CSR of local pairs,
found in one scan per source. Every kernel call builds its local
subgraph from those pairs, in C. Both tables keep only the arcs that can
lie in a k-clique: an arc ``u -> x`` stays iff x has at least k-2
neighbours in N+(u). A kept source's triangle rows are its local
adjacency among its kept out-neighbours, including the edges whose own
arcs were dropped, so they cannot be rederived from the kept arcs. The
score table, besides, orients only the edges between nodes of positive
score; ``nodes``, the positions and both orderings stay over every node.
A dropped arc or node completes no clique, so the clique set, the scores
and each kernel's result are those of the unfiltered tables; FindMin
only visits fewer dead candidates. The node scores are one C call too
(:func:`~repro.core.kernels.node_scores`).

From here to the selected S a node is keyed only by its dense position,
its index in ``nodes`` (node ids, ascending): the orderings and the
scores are int arrays over positions, both tables share them, kernels
take and return positions, and ``valid`` masks are indexed by them.
Positions rise with id, so a sort or a tie-break on position tuples is
the one on id tuples. Each algorithm maps its S to ids once, with
:meth:`Prepared.to_ids`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core import kernels
from repro.graphs import adjacency as adj_mod
from repro.graphs.adjacency import Oriented


@dataclass(eq=False)
class Prepared:
    edges: np.ndarray
    k: int
    nodes: np.ndarray = field(init=False)  # every node id, ascending
    pos: np.ndarray = field(init=False)  # each edge's endpoints as positions, (m, 2)
    degree_rank: np.ndarray = field(init=False)  # rank of each position

    def __post_init__(self) -> None:
        self.nodes, self.pos, self.degree_rank = adj_mod.rank_by_degree(self.edges)

    @cached_property
    def degree_adj(self) -> Oriented:
        return adj_mod.orient_by_rank(self.nodes, self.pos, self.degree_rank, self.k)

    @cached_property
    def scores(self) -> np.ndarray:
        """Node scores ``s_n`` by position; 0 for a node in no k-clique."""
        return kernels.node_scores(self.degree_adj, self.k)

    @cached_property
    def rank(self) -> np.ndarray:
        return adj_mod.rank_from_scores(self.scores)

    @cached_property
    def adj(self) -> Oriented:
        return adj_mod.orient_by_rank(self.nodes, self.pos, self.rank, self.k, live=self.scores > 0)

    def to_ids(self, cliques) -> list[tuple[int, ...]]:
        """Cliques of positions (tuples, or the rows of an array) as
        tuples of node ids, in the same order; a sorted clique stays
        sorted."""
        rows = np.asarray(cliques, dtype=np.intp).reshape(-1, self.k)
        return list(map(tuple, self.nodes[rows].tolist()))
