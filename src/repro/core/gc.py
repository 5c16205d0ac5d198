"""GC — Algorithm 2: greedy over all cliques by ascending clique score.

Materializes every k-clique (that is GC's defining cost — the paper's
OOM cells, reproduced here via the Budget) with its clique score, then
selects cliques in ascending ``(s_c(C), member tuple)`` order,
skipping any clique that intersects an already chosen one.

Two selection paths produce the identical S:

- driver greedy over the collected clique list (small inputs), and
- ``select_distributed``: deterministic Luby-style DataFrame rounds —
  a clique is selected in a round iff its total-order key is the
  minimum among all remaining cliques sharing any node with it. Every
  sequential-greedy pick eventually becomes such a local minimum, and
  every local minimum is a sequential-greedy pick, so the rounds
  compute exactly the sequential result, in parallel. The key is
  ``struct(score, m0, ..., m{k-1})``: Spark orders structs field by
  field, exactly as the driver orders ``(score, members)`` tuples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import clique_listing, kernels
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
from repro.core.prepare import Prepared
from repro.graphs import datasets


@dataclass
class GCResult:
    status: str
    S: list[tuple[int, ...]]
    n_cliques: int = 0
    rounds: int = 0

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


def gc(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
    driver_threshold: int = 2_000_000,
) -> GCResult:
    """Run Algorithm 2 end-to-end on Spark.

    ``driver_threshold``: if at most this many cliques survive,
    selection finishes on the driver; set 0 to force the distributed
    rounds (tests do, to exercise that path).
    """
    try:
        prep = Prepared(datasets.df_to_edges(edges_df), k)
        n_cliques = sum(prep.scores.values()) // k
        if budget is not None:
            budget.check_count(n_cliques)  # GC must store all of them
            budget.check_time()
        scored_df = clique_listing.list_kcliques(spark, prep, budget=budget)
        if n_cliques <= driver_threshold:
            S = greedy_by_score(_collect_scored(scored_df, k))
            return GCResult("OK", S, n_cliques=n_cliques)
        S, rounds = select_distributed(spark, scored_df, k, driver_threshold)
        return GCResult("OK", S, n_cliques=n_cliques, rounds=rounds)
    except (SimulatedOOM, SimulatedOOT):
        raise
    except Exception as exc:
        raise translate_spark_error(exc) from exc


def _collect_scored(scored_df: DataFrame, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """``(score, members)`` of every clique row, on the driver."""
    rows = scored_df.select("score", *clique_listing.member_cols(k)).toPandas()
    return [(r[0], tuple(r[1:])) for r in rows.to_numpy(np.int64).tolist()]


def select_distributed(
    spark: SparkSession,
    scored_df: DataFrame,
    k: int,
    driver_threshold: int,
) -> tuple[list[tuple[int, ...]], int]:
    """Deterministic local-minimum selection rounds (see module doc).

    Returns (S, number of distributed rounds run). Falls back to the
    driver greedy once at most ``driver_threshold`` cliques remain —
    remaining cliques are disjoint from everything selected so far, so
    the tail greedy composes exactly.
    """
    cols = clique_listing.member_cols(k)
    members = F.array(*(F.col("key")[c] for c in cols))
    df = scored_df.select(F.struct("score", *cols).alias("key")).localCheckpoint()
    S: list[tuple[int, ...]] = []
    rounds = 0
    while True:
        remaining = df.count()
        if remaining == 0:
            break
        if remaining <= driver_threshold:
            S += greedy_by_score(_collect_scored(df.select("key.*"), k))
            break
        rounds += 1
        ex = df.select("key", F.explode(members).alias("node"))
        node_min = ex.groupBy("node").agg(F.min("key").alias("mk"))
        winner_keys = (
            ex.join(node_min, "node")
            .groupBy("key")
            .agg(F.min((F.col("key") == F.col("mk")).cast("int")).alias("allmin"))
            .where(F.col("allmin") == 1)
            .select("key")
        )
        winners = df.join(winner_keys, "key", "left_semi").localCheckpoint()
        S += [c for _, c in _collect_scored(winners.select("key.*"), k)]
        covered = winners.select(F.explode(members).alias("node")).distinct()
        dead_keys = (
            ex.join(covered, "node", "left_semi").select("key").distinct()
        )
        df = df.join(dead_keys, "key", "left_anti").localCheckpoint()
    return S, rounds


def gc_numpy(edges: np.ndarray, k: int) -> GCResult:
    """Spark-free GC on a canonical edge array — the same preparation,
    listing orientation and tie-breaks as the Spark path; used by fast
    unit tests, Theorem-4 checks, and the dynamic module's from-scratch
    baseline."""
    prep = Prepared(edges, k)
    adj, counts = prep.degree_adj, prep.scores
    cliques: list[tuple[int, ...]] = []
    for u in adj:
        kernels.enumerate_from_source(adj, u, k, out=cliques)
    scored = [(sum(counts.get(v, 0) for v in c), c) for c in cliques]
    return GCResult("OK", greedy_by_score(scored), n_cliques=len(cliques))
