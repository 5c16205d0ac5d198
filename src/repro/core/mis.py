"""Maximum independent set solvers for the OPT baseline.

OPT in the paper computes the exact MIS on the clique graph (they use
the Akiba-Iwata branch-and-reduce solver). We implement a compact
branch-and-bound with degree-0/1 reductions and an upper-bound prune —
exact, and sufficient for the small clique graphs where OPT finishes
at all (the paper's OPT is OOT/OOM beyond tiny inputs, which our time
budget reproduces).
"""
from __future__ import annotations

from repro.core.budgets import Budget


def exact_mis(adj: dict[int, set[int]], budget: Budget | None = None) -> set[int]:
    """Exact maximum independent set of the graph given as an
    adjacency dict (isolated nodes must appear with empty sets).

    Branch-and-bound: reduce degree-0/1 nodes (always safe to take),
    otherwise branch on a max-degree node v — either exclude v, or
    take v and drop N(v). Prunes when |current| + |remaining| cannot
    beat the incumbent. Raises ``SimulatedOOT`` via the budget on
    overrun.
    """
    live = {u: set(nb) for u, nb in adj.items()}
    best: list[set[int]] = [set()]
    _mis_rec(live, set(), best, budget)
    return best[0]


def _mis_rec(live: dict[int, set[int]], chosen: set[int], best, budget) -> None:
    if budget is not None:
        budget.check_time()
    # Reductions: repeatedly take degree-0 and degree-1 nodes.
    changed = True
    live = {u: set(nb) for u, nb in live.items()}
    chosen = set(chosen)
    while changed:
        changed = False
        for u in list(live):
            if u not in live:
                continue
            deg = len(live[u])
            if deg == 0:
                chosen.add(u)
                del live[u]
                changed = True
            elif deg == 1:
                chosen.add(u)
                v = next(iter(live[u]))
                _drop(live, v)
                del live[u]
                changed = True
    if not live:
        if len(chosen) > len(best[0]):
            best[0] = chosen
        return
    if len(chosen) + len(live) <= len(best[0]):
        return  # cannot beat incumbent
    v = max(live, key=lambda u: (len(live[u]), u))
    # Branch 1: take v, drop N(v).
    l1 = {u: set(nb) for u, nb in live.items()}
    for w in list(l1[v]):
        _drop(l1, w)
    del l1[v]
    _mis_rec(l1, chosen | {v}, best, budget)
    # Branch 2: exclude v.
    l2 = {u: set(nb) for u, nb in live.items()}
    _drop(l2, v)
    _mis_rec(l2, chosen, best, budget)


def _drop(live: dict[int, set[int]], u: int) -> None:
    if u not in live:
        return
    for w in live[u]:
        live[w].discard(u)
    del live[u]

