"""Solution validity and maximality oracles (test infrastructure).

These re-derive, from first principles (definitions 1 and 3), whether
an output S is a valid disjoint k-clique set and whether it is
maximal: "maximal" means the residual graph induced on the nodes not
covered by S contains no k-clique.
"""
from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.graphs import adjacency as adj_mod


def is_clique(adj_sets: dict[int, set[int]], members) -> bool:
    """Are the given nodes pairwise adjacent (and distinct)?"""
    ms = list(members)
    if len(set(ms)) != len(ms):
        return False
    return kernels._is_clique(adj_sets, ms)


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
    found = kernels.cliques_in_subset(adj, free, k, limit=1)
    return len(found) == 0


def brute_force_all_kcliques(edges: np.ndarray, k: int) -> set[tuple[int, ...]]:
    """Reference listing by brute enumeration over the whole node set —
    the ground truth the Spark listing substrate is tested against."""
    adj = adj_mod.adj_sets(edges)
    allnodes = {int(v) for v in edges.reshape(-1)}
    return set(kernels.cliques_in_subset(adj, allnodes, k))


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
