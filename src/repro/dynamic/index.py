"""Candidate k-clique index (Algorithm 5) and free-node settling.

A *candidate* k-clique contains at least one free node and at least
one non-free node, with all non-free nodes from the same clique
``C`` of S; swapping C out can then admit several candidates at once.
For each ``C`` the paper inspects ``B = C ∪ N_F(C)`` and lists all
k-cliques on B except C — complete, because every candidate of C must
lie inside B.

``build_index_spark`` parallelizes the per-clique enumeration with
``mapInPandas`` (the paper's "for each clique in S in parallel"), its
tasks returning owner and candidate as member columns
``o0..o{k-1}, c0..c{k-1}``; ``candidates_for`` is the driver-side
kernel reused incrementally by the update algorithms. Both apply one
candidate rule, ``_candidates``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import kernels
from repro.dynamic.state import Clique, DynamicState


def _candidates(state: DynamicState, c: Clique) -> set[Clique]:
    """All candidate k-cliques of ``c`` per Definition in Section V-A:
    k-cliques on ``B = c ∪ N_F(c)`` that use at least one node of ``c``
    and at least one free node (so are not ``c`` itself)."""
    cset = set(c)
    B = cset | state.free_neighbors(c)
    cands = kernels.cliques_in_subset(state.adj, B, state.k)
    return {x for x in cands if 0 < len(cset.intersection(x)) < state.k}


def candidates_for(state: DynamicState, c: Clique) -> set[Clique]:
    """The candidates of ``c``. ``build_index_spark`` tasks call
    ``_candidates`` instead, so that a wrapper installed on this name
    in the driver (perfbench's tracer) is never shipped to executors."""
    return _candidates(state, c)


def build_index(state: DynamicState) -> None:
    """Driver-side Algorithm 5: recompute the whole candidate index."""
    for c in state.S:
        state.cand[c] = candidates_for(state, c)


def build_index_spark(spark: SparkSession, state: DynamicState) -> int:
    """Spark-parallel Algorithm 5. Returns the index size (number of
    candidate cliques) and populates ``state.cand`` in place.

    Each task receives clique rows and rebuilds, from broadcasts, the
    part of the state the candidate rule reads: the adjacency and the
    node -> owner map.
    """
    k = state.k
    if not state.S:
        return 0
    bc_adj = spark.sparkContext.broadcast(state.adj)
    bc_node2c = spark.sparkContext.broadcast(state.node2c)
    cols = [f"o{i}" for i in range(k)] + [f"c{i}" for i in range(k)]

    rows = pd.DataFrame(sorted(state.S), columns=[f"m{i}" for i in range(k)], dtype="int64")
    n_part = max(1, min(spark.sparkContext.defaultParallelism, len(rows)))
    cliques_df = spark.createDataFrame(rows).repartition(n_part)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        st = DynamicState(k=k, adj=bc_adj.value, node2c=bc_node2c.value)
        out = []
        for batch in batches:
            for c in map(tuple, batch.to_numpy(np.int64).tolist()):
                out += [c + x for x in _candidates(st, c)]
        yield pd.DataFrame(out, columns=cols, dtype="int64")

    schema = ", ".join(f"{c} long" for c in cols)
    pairs = cliques_df.mapInPandas(run, schema=schema).toPandas().to_numpy(np.int64).tolist()
    for c in state.S:
        state.cand[c] = set()
    for row in pairs:
        state.cand[tuple(row[:k])].add(tuple(row[k:]))
    return int(sum(len(v) for v in state.cand.values()))


def index_size(state: DynamicState) -> int:
    return sum(len(v) for v in state.cand.values())


def settle_free(state: DynamicState, seeds) -> list[Clique]:
    """Restore maximality around the given (just freed) nodes: while a
    k-clique exists among free nodes touching a seed, add it to S.
    Returns the cliques added. Candidate bookkeeping is left to the
    caller (owners adjacent to flipped nodes must be refreshed)."""
    added: list[Clique] = []
    pending = [int(s) for s in seeds]
    while pending:
        u = pending.pop()
        if not state.is_free(u):
            continue
        while True:
            free_around = {u} | {
                w for w in state.adj.get(u, ()) if state.is_free(w)
            }
            got = kernels.cliques_in_subset(
                state.adj, free_around, state.k, containing=(u,), limit=1
            )
            if not got:
                break
            added.append(state.add_to_S(got[0]))
            break  # u is now covered; move on
    return added
