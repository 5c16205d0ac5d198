"""Mutable state for dynamic maintenance.

Holds the current graph (adjacency sets), the solution S, the
node -> clique assignment, static node scores (the selection heuristic
for swaps), and the candidate-clique index of Algorithm 5:
``cand[C]`` is the set of candidate k-cliques whose non-free nodes all
belong to ``C`` (the paper's strict candidate constraint).

Cliques are canonically identified by their sorted member tuple.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs import adjacency as adj_mod

Clique = tuple[int, ...]


def canon(members) -> Clique:
    return tuple(sorted(int(v) for v in members))


@dataclass
class DynamicState:
    k: int
    adj: dict[int, set[int]]
    S: set[Clique] = field(default_factory=set)
    node2c: dict[int, Clique] = field(default_factory=dict)
    cand: dict[Clique, set[Clique]] = field(default_factory=dict)
    scores: dict[int, int] = field(default_factory=dict)

    # -- basic queries ----------------------------------------------------
    def is_free(self, u: int) -> bool:
        return u not in self.node2c

    def free_neighbors(self, members) -> set[int]:
        """N_F(C): free nodes adjacent to any node of the clique."""
        adj, node2c = self.adj, self.node2c
        out: set[int] = set()
        for v in members:
            out.update(w for w in adj.get(v, ()) if w not in node2c)
        return out

    def clique_score(self, members) -> int:
        return sum(self.scores.get(v, 0) for v in members)

    # -- mutations (keep node2c and index ownership in sync) --------------
    def add_to_S(self, members) -> Clique:
        c = canon(members)
        assert all(self.is_free(v) for v in c), f"{c} overlaps S"
        self.S.add(c)
        for v in c:
            self.node2c[v] = c
        self.cand.setdefault(c, set())
        return c

    def remove_from_S(self, c: Clique) -> None:
        self.S.remove(c)
        for v in c:
            del self.node2c[v]
        self.cand.pop(c, None)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def add_edge(self, u: int, v: int) -> None:
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def del_edge(self, u: int, v: int) -> None:
        self.adj.get(u, set()).discard(v)
        self.adj.get(v, set()).discard(u)

    def edges_array(self) -> np.ndarray:
        rows = [(u, v) for u, nb in self.adj.items() for v in nb if u < v]
        return (
            np.array(sorted(rows), dtype=np.int64)
            if rows
            else np.empty((0, 2), dtype=np.int64)
        )


def from_edges(
    edges: np.ndarray, k: int, S, scores: dict[int, int] | None = None
) -> DynamicState:
    """Build a state from an edge array and an initial solution
    (normally LP's output). Candidate index starts empty — call
    ``repro.dynamic.index.build_index``."""
    st = DynamicState(k=k, adj=adj_mod.adj_sets(edges), scores=dict(scores or {}))
    for c in S:
        st.add_to_S(c)
    return st
