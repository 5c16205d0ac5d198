"""GC — Algorithm 2: greedy over all cliques by ascending clique score.

Materializes every k-clique (that is GC's defining cost — the paper's
OOM cells, reproduced here via the Budget), attaches clique scores,
then selects cliques in ascending ``(s_c(C), member tuple)`` order,
skipping any clique that intersects an already chosen one.

Two selection paths produce the identical S:

- driver greedy over the collected clique list (small inputs), and
- ``select_distributed``: deterministic Luby-style DataFrame rounds —
  a clique is selected in a round iff its total-order key is the
  minimum among all remaining cliques sharing any node with it. Every
  sequential-greedy pick eventually becomes such a local minimum, and
  every local minimum is a sequential-greedy pick, so the rounds
  compute exactly the sequential result, in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import clique_listing, kernels
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
from repro.core.prepare import Prepared
from repro.core.scores import key_col, with_clique_scores


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
        from repro.core.scores import score_ordering

        ordering, scores_df = score_ordering(spark, edges_df, k, budget=budget)
        n_cliques = clique_listing.count_kcliques(spark, edges_df, k, ordering, budget=budget)
        if budget is not None:
            budget.check_count(n_cliques)  # GC must store all of them
            budget.check_time()
        cliques_df = clique_listing.list_kcliques(spark, edges_df, k, ordering, budget=budget)
        scored_df = with_clique_scores(cliques_df, scores_df, k)
        if n_cliques <= driver_threshold:
            pdf = scored_df.toPandas()
            cols = clique_listing.member_cols(k)
            scored = [
                (int(r.score), tuple(int(getattr(r, c)) for c in cols))
                for r in pdf.itertuples(index=False)
            ]
            return GCResult("OK", greedy_by_score(scored), n_cliques=n_cliques)
        S, rounds = select_distributed(spark, scored_df, k, driver_threshold)
        return GCResult("OK", S, n_cliques=n_cliques, rounds=rounds)
    except (SimulatedOOM, SimulatedOOT):
        raise
    except Exception as exc:
        raise translate_spark_error(exc) from exc


def select_distributed(
    spark: SparkSession,
    scored_df: DataFrame,
    k: int,
    driver_threshold: int = 100_000,
) -> tuple[list[tuple[int, ...]], int]:
    """Deterministic local-minimum selection rounds (see module doc).

    Returns (S, number of distributed rounds run). Falls back to the
    driver greedy once at most ``driver_threshold`` cliques remain —
    remaining cliques are disjoint from everything selected so far, so
    the tail greedy composes exactly.
    """
    cols = clique_listing.member_cols(k)
    df = scored_df.withColumn("key", key_col()).select("key", *cols).localCheckpoint()
    S: list[tuple[int, ...]] = []
    rounds = 0
    while True:
        remaining = df.count()
        if remaining == 0:
            break
        if remaining <= driver_threshold:
            pdf = df.toPandas()
            scored = [
                # key string sorts identically to (score, members)
                (r.key, tuple(int(getattr(r, c)) for c in cols))
                for r in pdf.itertuples(index=False)
            ]
            used: set[int] = set()
            for _, members in sorted(scored):
                if all(v not in used for v in members):
                    S.append(members)
                    used.update(members)
            break
        rounds += 1
        ex = df.select("key", F.explode(F.array(*cols)).alias("node"))
        node_min = ex.groupBy("node").agg(F.min("key").alias("mk"))
        winner_keys = (
            ex.join(node_min, "node")
            .groupBy("key")
            .agg(F.min((F.col("key") == F.col("mk")).cast("int")).alias("allmin"))
            .where(F.col("allmin") == 1)
            .select("key")
        )
        winners = df.join(winner_keys, "key", "left_semi").localCheckpoint()
        for r in winners.toPandas().itertuples(index=False):
            S.append(tuple(int(getattr(r, c)) for c in cols))
        covered = winners.select(F.explode(F.array(*cols)).alias("node")).distinct()
        dead_keys = (
            ex.join(covered, "node", "left_semi").select("key").distinct()
        )
        df = df.join(dead_keys, "key", "left_anti").localCheckpoint()
    return S, rounds


def gc_numpy(edges: np.ndarray, k: int) -> GCResult:
    """Spark-free GC on a canonical edge array — identical ordering,
    scoring and tie-breaks as the Spark path; used by fast unit tests,
    Theorem-4 checks, and the dynamic module's from-scratch baseline."""
    prep = Prepared(edges, k)
    adj, counts = prep.adj, prep.scores
    cliques: list[tuple[int, ...]] = []
    for u in adj:
        kernels.enumerate_from_source(adj, u, k, out=cliques)
    scored = [(sum(counts.get(v, 0) for v in c), c) for c in cliques]
    return GCResult("OK", greedy_by_score(scored), n_cliques=len(cliques))
