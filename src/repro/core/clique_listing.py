"""k-clique listing and Table I's clique count.

- :func:`list_kcliques` — GC's and OPT's listing: the per-source kClist
  recursion over the degree orientation of a
  :class:`~repro.core.prepare.Prepared`, one driver loop over the
  sources. Like the kernels it works on dense positions, so the cliques
  come back as position tuples; ``Prepared.to_ids`` maps them to node
  ids.

- :func:`count_kcliques` — Table I's count, Σ s_n / k from the driver's
  node scores (``Prepared.scores``): counting never materializes
  cliques, which is what makes Algorithm 3 "lightweight".
"""
from __future__ import annotations

from repro.core import kernels
from repro.core.budgets import Budget
from repro.core.prepare import Prepared


def list_kcliques(prep: Prepared, budget: Budget | None = None) -> list[tuple[int, ...]]:
    """Every k-clique as its member positions in ascending order (the
    canonical clique identity; ``prep.to_ids`` gives the node ids),
    listed once, from its highest-ordering member of the degree
    orientation, over the sources in ascending position; the budget is
    checked once per source."""
    k, adj = prep.k, prep.degree_adj
    budget = budget or Budget()
    out: list[tuple[int, ...]] = []
    for src in adj.sources(k).tolist():
        budget.check_time()
        kernels.enumerate_from_source(adj, src, k, out=out)
    return out


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
