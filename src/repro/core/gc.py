"""GC — Algorithm 2: greedy over all cliques by ascending clique score.

Materializes every k-clique (that is GC's defining cost — the paper's
OOM cells, reproduced here via the Budget), scores each one from the
node scores, then selects cliques in ascending ``(s_c(C), member
tuple)`` order, skipping any clique that intersects an already chosen
one.

The cliques stay in one int32 array from listing to selection:
:func:`~repro.core.clique_listing.list_kcliques` fills its rows (member
positions, ascending), the clique scores are one gather-sum over the
node scores, and one ``np.lexsort`` ranks the rows
(:func:`greedy_order`). The selection runs in local-minimum rounds
(Blelloch, Fineman and Shun, "Greedy Sequential Maximal Independent Set
and Matching are Parallel on Average", SPAA 2012): a live clique whose
rank is the lowest among the live cliques at each of its members joins
S, then every live clique that touches a chosen node drops. No earlier
clique can still take such a clique's nodes, so the rounds return
exactly the S of the sequential scan, :func:`greedy_by_score`, which
the tests keep as the oracle. Everything runs on the driver. The budget
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
    S: list[tuple[int, ...]]
    n_cliques: int = 0
    rounds: int = 0  # local-minimum rounds of the selection

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


def greedy_order(s_c: np.ndarray, cliques: np.ndarray, n_nodes: int) -> np.ndarray:
    """The row order of ascending ``(s_c, member tuple)`` for clique rows
    over positions ``< n_nodes``: one ``np.lexsort`` over that key,
    packed into as few int64 words as it fits in."""
    bits = max(1, (n_nodes - 1).bit_length())
    keys, word, width = [], s_c, max(1, int(s_c.max(initial=0)).bit_length())
    for col in cliques.T:
        if width + bits > 63:
            keys.append(word)
            word, width = np.zeros_like(s_c), 0
        word = (word << bits) | col
        width += bits
    keys.append(word)
    return np.lexsort(keys[::-1])


def select_in_rounds(ranked: np.ndarray, n_nodes: int) -> tuple[np.ndarray, int]:
    """The rows of ``ranked`` (cliques over positions ``< n_nodes``, in
    greedy order) that the sequential greedy keeps, ascending, and the
    number of local-minimum rounds that found them."""
    n, k = ranked.shape
    picked = np.zeros(n, dtype=bool)
    used = np.zeros(n_nodes, dtype=bool)
    low = np.empty(n_nodes, dtype=np.int64)  # lowest live row through each node
    live = np.arange(n)
    rounds = 0
    while live.size:
        rounds += 1
        rows = ranked[live]
        low[rows] = n
        np.minimum.at(low, rows.ravel(), np.repeat(live, k))
        win = (low[rows] == live[:, None]).all(axis=1)
        picked[live[win]] = True
        used[rows[win]] = True
        live = live[~used[rows].any(axis=1)]
    return np.flatnonzero(picked), rounds


def solve(prep: Prepared, budget: Budget | None = None) -> GCResult:
    """Run Algorithm 2: list, score and select."""
    n_cliques = clique_listing.count_kcliques(prep, budget)  # GC must store all of them
    cliques = clique_listing.list_kcliques(prep, budget)
    s_c = prep.scores[cliques].sum(axis=1)
    ranked = cliques[greedy_order(s_c, cliques, len(prep.nodes))]
    picked, rounds = select_in_rounds(ranked, len(prep.nodes))
    return GCResult(prep.to_ids(ranked[picked]), n_cliques=n_cliques, rounds=rounds)


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
