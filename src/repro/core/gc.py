"""GC — Algorithm 2: greedy over all cliques by ascending clique score.

Materializes every k-clique (that is GC's defining cost — the paper's
OOM cells, reproduced here via the Budget) with its clique score, then
selects cliques in ascending ``(s_c(C), member tuple)`` order,
skipping any clique that intersects an already chosen one.

Algorithm 2 is one sequential scan, so selection runs on the driver on
both backends; Spark ``gc`` fans out only the listing (one task per
core, :func:`~repro.core.clique_listing.fan_out`) and collects the
``(members, score)`` rows. The harness budget stops GC at a clique
count that fits on the driver (``tables.common.DEFAULT_MAX_CLIQUES``)
before anything is listed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
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


def gc(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
    driver_threshold: int | None = None,  # ignored; perfbench/workloads.py passes it
) -> GCResult:
    """Run Algorithm 2: list on Spark, select on the driver."""
    try:
        prep = Prepared(datasets.df_to_edges(edges_df), k)
        n_cliques = sum(prep.scores.values()) // k
        if budget is not None:
            budget.check_count(n_cliques)  # GC must store all of them
            budget.check_time()
        rows = clique_listing.list_kcliques(spark, prep, budget=budget).tolist()
        S = greedy_by_score([(r[-1], tuple(r[:-1])) for r in rows])
        return GCResult("OK", S, n_cliques=n_cliques)
    except (SimulatedOOM, SimulatedOOT):
        raise
    except Exception as exc:
        raise translate_spark_error(exc) from exc


def gc_numpy(edges: np.ndarray, k: int) -> GCResult:
    """Spark-free GC on a canonical edge array — the same preparation,
    listing orientation and tie-breaks as the Spark path; used by fast
    unit tests, Theorem-4 checks, and the dynamic module's from-scratch
    baseline."""
    prep = Prepared(edges, k)
    cliques = prep.cliques()
    scores = prep.scores
    scored = [(sum(scores.get(v, 0) for v in c), c) for c in cliques]
    return GCResult("OK", greedy_by_score(scored), n_cliques=len(cliques))
