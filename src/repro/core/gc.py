"""GC — Algorithm 2: greedy over all cliques by ascending clique score.

Materializes every k-clique (that is GC's defining cost — the paper's
OOM cells, reproduced here via the Budget), scores each one from the
node scores, then selects cliques in ascending ``(s_c(C), member
tuple)`` order, skipping any clique that intersects an already chosen
one.

The cliques stay in one int32 array from listing to selection:
:func:`~repro.core.clique_listing.list_kcliques` fills its rows (member
positions, ascending), the clique scores are one gather-sum over the
node scores, one ``np.lexsort`` ranks the rows (:func:`greedy_order`),
and :func:`greedy_select` runs that scan in C over the rows in that
order. :func:`greedy_by_score`, the same scan over ``(score, members)``
pairs, is the tests' oracle and TrySwap's selection. Everything runs on
the driver. The budget stops GC at a clique count that fits on the
driver (``tables.common.DEFAULT_MAX_CLIQUES``) before anything is
listed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing, native
from repro.core.budgets import Budget
from repro.core.prepare import Prepared
from repro.graphs import datasets


@dataclass
class GCResult:
    S: list[tuple[int, ...]]
    n_cliques: int = 0
    rounds: int = 0  # kept because perfbench/run.py reads it

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


def greedy_select(cliques: np.ndarray, order: np.ndarray, n_nodes: int) -> np.ndarray:
    """Algorithm 2's scan over the rows of ``cliques`` (an int32 ``(n,
    k)`` array of positions ``< n_nodes``) in the int64 row order
    ``order`` (a permutation of the rows): ``picked[x]`` is True when
    the scan keeps row ``order[x]``, the one that shares no position
    with a row kept before it."""
    n = len(order)
    picked, used = np.zeros(n, dtype=bool), np.zeros(n_nodes, dtype=bool)
    # Each array's length is checked against the other's: they must match.
    native.lib.greedy_scan(n, cliques.shape[1], native.addr(cliques, np.int32, n),
                           native.addr(order, np.int64, len(cliques)),
                           native.addr(used, np.bool_, n_nodes), native.addr(picked, np.bool_, n))
    return picked


def solve(prep: Prepared, budget: Budget | None = None) -> GCResult:
    """Run Algorithm 2: list, score and select."""
    cliques = clique_listing.list_kcliques(prep, budget)  # GC must store all of them
    order = greedy_order(prep.scores[cliques].sum(axis=1), cliques, len(prep.nodes))
    picked = greedy_select(cliques, order, len(prep.nodes))
    return GCResult(prep.to_ids(cliques[order[picked]]), n_cliques=len(cliques))


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
