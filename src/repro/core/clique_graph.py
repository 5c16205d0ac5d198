"""The clique graph (Def. 2): condensed graph over k-cliques.

Nodes are k-cliques; an edge joins two cliques that share at least one
graph node. A clique's degree in it (Def. 4) is ``len(adj[C])``. Only
OPT (and the Theorem-2 bound tests) need this — the paper's point is
that the proposed algorithms avoid materializing it.
"""
from __future__ import annotations

from collections import defaultdict


def clique_graph(cliques: list[tuple[int, ...]]) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """Adjacency of the clique graph over ``cliques`` (member tuples),
    keyed in the order given; isolated cliques map to empty sets.

    Built from a node -> cliques inverted index: the cliques through one
    node are pairwise adjacent, and the sets keep each pair once however
    many nodes it shares.
    """
    through: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for c in cliques:
        for v in c:
            through[v].append(c)
    adj: dict[tuple[int, ...], set[tuple[int, ...]]] = {c: set() for c in cliques}
    for group in through.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    return adj
