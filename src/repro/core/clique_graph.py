"""The clique graph (Def. 2): condensed graph over k-cliques.

Nodes are k-cliques; an edge joins two cliques that share at least one
graph node. Clique ``i`` is entry ``i`` of the list given, and its
neighbours form one Python-int mask, so its degree (Def. 4) is the
mask's ``bit_count()``. Only OPT (and the Theorem-2 bound tests) need
this — the paper's point is that the proposed algorithms avoid
materializing it.
"""
from __future__ import annotations

from collections import defaultdict


def clique_graph(cliques: list[tuple[int, ...]]) -> list[int]:
    """One neighbour mask per clique: bit ``j`` of entry ``i`` is set iff
    ``cliques[i]`` and ``cliques[j]`` (``i != j``) share a node.

    Built from a node -> clique-bits index: the cliques through one node
    are pairwise adjacent, so each clique takes the union of its nodes'
    masks, less its own bit.
    """
    through: dict[int, int] = defaultdict(int)
    for i, c in enumerate(cliques):
        for v in c:
            through[v] |= 1 << i
    nbr = []
    for i, c in enumerate(cliques):
        m = 0
        for v in c:
            m |= through[v]
        nbr.append(m & ~(1 << i))
    return nbr
