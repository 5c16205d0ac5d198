"""Solution validity and maximality oracles (test infrastructure).

These re-derive, from first principles (definitions 1 and 3), whether
an output S is a valid disjoint k-clique set and whether it is
maximal: "maximal" means the residual graph induced on the nodes not
covered by S contains no k-clique.

:func:`cliques_in_subset` is a plain set recursion that shares no code
with the bitset listing of the same name, and is its reference.
"""
from __future__ import annotations

import numpy as np

from repro.graphs import adjacency as adj_mod


def cliques_in_subset(
    adj_sets: dict[int, set[int]],
    allowed: set[int],
    k: int,
    containing: tuple[int, ...] = (),
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """All k-cliques whose nodes lie inside ``allowed``, optionally
    required to contain the nodes in ``containing``; at most ``limit``
    of them. Brute enumeration over the induced subgraph in ascending-id
    order, each prefix checked against every candidate.
    """
    need = k - len(containing)
    base = set(containing)
    if need < 0 or not is_clique(adj_sets, base):
        return []
    if need == 0:
        return [tuple(sorted(containing))]
    cand: set[int] | None = None
    for c in containing:
        nb = adj_sets.get(c, set()) & allowed
        cand = nb if cand is None else cand & nb
    if cand is None:
        cand = set(allowed)
    cand -= base
    out: list[tuple[int, ...]] = []
    _subset_rec(adj_sets, sorted(cand), 0, need, sorted(base), out, limit)
    return out


def _subset_rec(adj_sets, cand, start, need, prefix, out, limit):
    if need == 0:
        out.append(tuple(sorted(prefix)))
        return limit is None or len(out) < limit
    for i in range(start, len(cand)):
        v = cand[i]
        nb = adj_sets.get(v, set())
        if all(p in nb for p in prefix):
            prefix.append(v)
            ok = _subset_rec(adj_sets, cand, i + 1, need - 1, prefix, out, limit)
            prefix.pop()
            if not ok:
                return False
    return True


def is_clique(adj_sets: dict[int, set[int]], members) -> bool:
    """Are the given nodes pairwise adjacent (and distinct)?"""
    ms = list(members)
    return len(set(ms)) == len(ms) and all(
        v in adj_sets.get(u, ()) for i, u in enumerate(ms) for v in ms[i + 1:])


def is_disjoint(S) -> bool:
    """Do the cliques of S cover each node at most once?"""
    seen: set[int] = set()
    for c in S:
        for v in c:
            if v in seen:
                return False
            seen.add(v)
    return True


def assert_valid_solution(edges: np.ndarray, k: int, S) -> None:
    """Raise AssertionError unless S is a valid disjoint k-clique set."""
    adj = adj_mod.adj_sets(edges)
    assert is_disjoint(S), "cliques in S are not pairwise disjoint"
    for c in S:
        assert len(c) == k, f"clique {c} does not have {k} nodes"
        assert is_clique(adj, c), f"{c} is not a clique of the graph"


def free_nodes(edges: np.ndarray, S) -> set[int]:
    """Nodes not covered by any clique of S."""
    covered = {v for c in S for v in c}
    return {int(v) for v in edges.reshape(-1)} - covered


def is_maximal(edges: np.ndarray, k: int, S) -> bool:
    """No k-clique exists among the free (uncovered) nodes."""
    adj = adj_mod.adj_sets(edges)
    free = free_nodes(edges, S)
    found = cliques_in_subset(adj, free, k, limit=1)
    return len(found) == 0


def brute_force_all_kcliques(edges: np.ndarray, k: int) -> set[tuple[int, ...]]:
    """Reference listing by brute enumeration over the whole node set —
    the ground truth the Spark listing substrate is tested against."""
    adj = adj_mod.adj_sets(edges)
    allnodes = {int(v) for v in edges.reshape(-1)}
    return set(cliques_in_subset(adj, allnodes, k))


def brute_force_max_disjoint(edges: np.ndarray, k: int) -> int:
    """Exact maximum |S| by exhaustive search over all k-cliques
    (tiny graphs only) — validates OPT's branch-and-bound.

    Branch and bound: the cliques still open after choosing ``cur`` of
    them can add at most (their node count) // k more, so a branch
    stops once that cannot beat the best size found. The bound only
    cuts branches that cannot win, so the result stays exact.
    """
    best = 0

    def rec(avail: list[frozenset[int]], cur: int) -> None:
        nonlocal best
        best = max(best, cur)
        # room[j]: the node count of avail[j:], the most the cliques
        # from j on can still cover.
        room = [0] * (len(avail) + 1)
        seen: set[int] = set()
        for j in range(len(avail) - 1, -1, -1):
            seen |= avail[j]
            room[j] = len(seen)
        for j, c in enumerate(avail):
            if cur + room[j] // k <= best:
                return  # room only shrinks as j grows
            rec([d for d in avail[j + 1:] if c.isdisjoint(d)], cur + 1)

    rec([frozenset(c) for c in sorted(brute_force_all_kcliques(edges, k))], 0)
    return best
