"""k-clique listing and Table I's clique count.

- :func:`list_kcliques` — GC's and OPT's listing: the per-source kClist
  recursion over the degree orientation of a
  :class:`~repro.core.prepare.Prepared`, one driver loop over the
  sources writing into one int32 array of Σ s_n / k rows (any other
  number of cliques raises, so counting and listing check each other),
  of positions; ``Prepared.to_ids`` maps rows to node ids.

- :func:`count_kcliques` — Table I's count, Σ s_n / k from the driver's
  node scores (``Prepared.scores``): counting never materializes
  cliques, which is what makes Algorithm 3 "lightweight".
"""
from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.budgets import Budget
from repro.core.prepare import Prepared


def list_kcliques(prep: Prepared, budget: Budget | None = None) -> np.ndarray:
    """Every k-clique as one row of an int32 ``(n_cliques, k)`` array:
    its member positions in ascending order (the canonical clique
    identity; ``prep.to_ids`` gives the node ids). Each clique is listed
    once, from its highest-ordering member of the degree orientation,
    over the sources in ascending position. The array is sized by
    :func:`count_kcliques`, which checks the budget's clique cap and
    clock; the clock is checked again once per source."""
    k, adj = prep.k, prep.degree_adj
    budget = budget or Budget()
    cliques = np.empty((count_kcliques(prep, budget), k), dtype=np.int32)
    n = 0
    for src in adj.sources(k).tolist():
        budget.check_time()
        n += len(kernels.enumerate_from_source(adj, src, k, out=cliques[n:]))
    if n != len(cliques):
        raise RuntimeError(f"listed {n} cliques, but the node scores count {len(cliques)}")
    cliques.sort(axis=1)
    return cliques


def count_kcliques(prep: Prepared, budget: Budget | None = None) -> int:
    """Total number of k-cliques: sum of node scores divided by k
    (every clique contributes once per member), checked against the
    budget's clique cap, then its clock."""
    total = int(prep.scores.sum())
    if total % prep.k:
        raise RuntimeError(f"the node scores sum to {total}, not a multiple of k = {prep.k}")
    if budget is not None:
        budget.check_count(total // prep.k)
        budget.check_time()
    return total // prep.k
