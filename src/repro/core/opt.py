"""OPT: exact maximum disjoint k-clique set via clique graph + MIS.

The straightforward pipeline from Section I the paper argues is
impractical: (i) list all k-cliques, (ii) build the clique graph,
(iii) exact MIS on it. All three run on the driver over a
:class:`~repro.core.prepare.Prepared` — exact MIS needs the whole
clique graph on one machine anyway — under a Budget that reproduces
the paper's OOM (too many cliques / clique-graph edges) and OOT (exact
MIS) cells. MIS vertex ``i`` is row ``i`` of the listing's clique array
sorted by member tuple; the rows hold positions, which rise with node
id, so the order and every tie-break are those of id tuples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT
from repro.core.clique_graph import clique_graph
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


def solve(prep: Prepared, budget: Budget | None = None) -> OptResult:
    """Exact solution with budget-simulated OOM/OOT (see DESIGN.md §3)."""
    if budget is not None:
        scores = prep.scores.tolist()
        # Cheap upper bound on clique-graph edges from node scores:
        # cliques sharing node u form a clique of size s_n(u) in the
        # clique graph, so |E(G_C)| <= sum_u C(s_n(u), 2). Guard BEFORE
        # building it — the clique graph is exactly where OPT blows up
        # (Table III).
        budget.check_count(sum(s * (s - 1) // 2 for s in scores))
        budget.check_time()
    # exact_mis sweeps its reductions in vertex order and breaks branch ties
    # by (degree, vertex), so S depends on the order: number the sorted rows.
    cliques = clique_listing.list_kcliques(prep, budget)
    cliques = cliques[np.lexsort(cliques.T[::-1])]
    nbr = clique_graph(cliques.tolist())
    n_edges = sum(m.bit_count() for m in nbr) // 2
    if budget is not None:
        budget.check_count(n_edges)
        budget.check_time()
    S = prep.to_ids(cliques[exact_mis(nbr, budget=budget)])
    return OptResult("OK", S, n_cliques=len(cliques), n_cg_edges=n_edges)


def opt_or_status(
    spark: SparkSession, edges_df: DataFrame, k: int, budget: Budget
) -> OptResult:
    """:func:`solve` on a Spark edge DataFrame, with budget failures
    turned into OOM/OOT results."""
    try:
        return solve(Prepared(datasets.df_to_edges(edges_df), k), budget)
    except SimulatedOOM:
        return OptResult("OOM", [])
    except SimulatedOOT:
        return OptResult("OOT", [])
