"""k-clique listing and Table I's clique count.

- :func:`list_kcliques` — GC's and OPT's listing: the per-source kClist
  recursion over the degree orientation of a
  :class:`~repro.core.prepare.Prepared`, one driver loop over the
  sources. Like the kernels it works on dense positions, so the cliques
  come back as an int32 array of position rows; ``Prepared.to_ids``
  maps rows to node ids.

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
    over the sources in ascending position; the budget is checked once
    per source."""
    k, adj = prep.k, prep.degree_adj
    budget = budget or Budget()
    out: list[int] = []
    for src in adj.sources(k).tolist():
        budget.check_time()
        kernels.enumerate_from_source(adj, src, k, out=out)
    cliques = np.fromiter(out, dtype=np.int32, count=len(out)).reshape(-1, k)
    cliques.sort(axis=1)
    return cliques


def count_kcliques(prep: Prepared, budget: Budget | None = None) -> int:
    """Total number of k-cliques: sum of node scores divided by k
    (every clique contributes once per member)."""
    k = prep.k
    total = int(prep.scores.sum())
    assert total % k == 0, "sum of node scores must be divisible by k"
    n = total // k
    if budget is not None:
        budget.check_count(n)
        budget.check_time()
    return n
