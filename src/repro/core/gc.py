"""GC — Algorithm 2: greedy over all cliques by ascending clique score.

Materializes every k-clique (that is GC's defining cost — the paper's
OOM cells, reproduced here via the Budget), scores each one from the
node scores, then selects cliques in ascending ``(s_c(C), member
tuple)`` order, skipping any clique that intersects an already chosen
one.

Listing (:func:`~repro.core.clique_listing.list_kcliques`), scoring and
the selection, one sequential scan, all run on the driver. The budget
stops GC at a clique count that fits on the driver
(``tables.common.DEFAULT_MAX_CLIQUES``) before anything is listed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing
from repro.core.budgets import Budget
from repro.core.prepare import Prepared
from repro.graphs import datasets


@dataclass
class GCResult:
    status: str
    S: list[tuple[int, ...]]
    n_cliques: int = 0
    rounds: int = 0  # always 0; kept because perfbench/run.py reads it

    @property
    def size(self) -> int:
        return len(self.S)


def greedy_by_score(
    scored: list[tuple[int, tuple[int, ...]]]
) -> list[tuple[int, ...]]:
    """Sequential greedy: ascending (score, members), keep disjoint."""
    used: set[int] = set()
    S: list[tuple[int, ...]] = []
    for _, members in sorted(scored):
        if all(v not in used for v in members):
            S.append(members)
            used.update(members)
    return S


# No caller; kept because perfbench.tracing.LAYERS looks this name up.
select_distributed = greedy_by_score


def solve(prep: Prepared, budget: Budget | None = None) -> GCResult:
    """Run Algorithm 2: list, score and select."""
    n_cliques = clique_listing.count_kcliques(prep, budget)  # GC must store all of them
    scores = prep.scores.tolist()
    cliques = clique_listing.list_kcliques(prep, budget)
    scored = [(sum(map(scores.__getitem__, c)), c) for c in cliques]
    return GCResult("OK", prep.to_ids(greedy_by_score(scored)), n_cliques=n_cliques)


def gc(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
    driver_threshold: int | None = None,  # ignored; perfbench/workloads.py passes it
) -> GCResult:
    """:func:`solve` on a Spark edge DataFrame, collected to the driver."""
    return solve(Prepared(datasets.df_to_edges(edges_df), k), budget)


def gc_numpy(edges: np.ndarray, k: int) -> GCResult:
    """:func:`solve` on a canonical edge array."""
    return solve(Prepared(edges, k))
