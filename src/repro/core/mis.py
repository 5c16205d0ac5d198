"""Maximum independent set solver for the OPT baseline.

OPT in the paper computes the exact MIS on the clique graph (they use
the Akiba-Iwata branch-and-reduce solver). We implement a compact
branch-and-bound with degree-0/1 reductions — exact, and sufficient for
the small clique graphs where OPT finishes at all (the paper's OPT is
OOT/OOM beyond tiny inputs, which our time budget reproduces).

Bitsets: vertex ``i`` is entry ``i`` of ``nbr``, its neighbour mask, a
Python int. A search node is just the mask of ``live`` vertices, the
mask of ``chosen`` ones and their count, so branching copies nothing;
degrees are ``(nbr[i] & live).bit_count()``.

Bounds: a node is pruned when ``|chosen| + |live|`` cannot beat the
incumbent, or when a greedy clique cover of ``live`` (San Segundo et
al., C&OR 2011, on the complement) has no more cliques than the
incumbent's lead over ``|chosen|`` — an independent set holds at most
one vertex of each clique.

Neither bound can change the returned set. The incumbent is replaced
only by a strictly larger leaf, so the search returns the first
maximum leaf in DFS order: no leaf before it is as large, so every
ancestor of it has an upper bound above the incumbent of its time and
is not pruned, and no later leaf is strictly larger. That holds for any
valid upper bound, so the tree walked and the set returned depend only
on the reductions, the branch rule and the branch order.
"""
from __future__ import annotations

from repro.core.budgets import Budget


def exact_mis(nbr: list[int], budget: Budget | None = None) -> list[int]:
    """Exact maximum independent set of the graph whose vertex ``i`` has
    neighbour mask ``nbr[i]``, as its vertices in ascending order.

    Branch-and-bound: sweep degree-0/1 vertices in ascending order until
    none is left (always safe to take), then branch on the live vertex
    with the largest (degree, index) — first take it and drop its
    neighbours, then exclude it. Raises ``SimulatedOOT`` via the budget
    on overrun.
    """
    best_count, best_mask = 0, 0
    # Pending nodes (live, chosen, count); the take child is pushed last
    # so it is walked first.
    stack = [((1 << len(nbr)) - 1, 0, 0)]
    while stack:
        live, chosen, count = stack.pop()
        if budget is not None:
            budget.check_time()
        # Sweep until a whole pass changes nothing; that pass saw every
        # live degree as it stands, so it also found the branch vertex.
        while True:
            rest = swept = live
            deg = v = -1
            while rest:
                bit = rest & -rest
                rest ^= bit
                if not live & bit:
                    continue
                i = bit.bit_length() - 1
                nb = nbr[i] & live
                if nb & (nb - 1) == 0:  # degree 0 or 1
                    chosen |= bit
                    count += 1
                    live &= ~(bit | nb)
                    continue
                d = nb.bit_count()
                if d >= deg:  # the sweep ascends: ties go to the later vertex
                    deg, v = d, i
            if live == swept:
                break
        if not live:
            if count > best_count:
                best_count, best_mask = count, chosen
            continue
        room = best_count - count
        if live.bit_count() <= room or _clique_cover_within(live, nbr, room):
            continue
        bit = 1 << v
        stack.append((live & ~bit, chosen, count))
        stack.append((live & ~(bit | nbr[v]), chosen | bit, count + 1))
    return [i for i in range(len(nbr)) if best_mask >> i & 1]


def _clique_cover_within(live: int, nbr: list[int], limit: int) -> bool:
    """Whether a greedy cover of ``live`` by cliques (each grown from
    the lowest uncovered vertex) needs at most ``limit`` cliques."""
    cliques = 0
    while live:
        cliques += 1
        if cliques > limit:
            return False
        cand = live
        while cand:
            low = cand & -cand
            live ^= low
            cand &= nbr[low.bit_length() - 1]
    return True
