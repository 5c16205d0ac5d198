"""Candidate k-clique index (Algorithm 5) and free-node settling.

A *candidate* k-clique contains at least one free node and at least
one non-free node, with all non-free nodes from the same clique
``C`` of S; swapping C out can then admit several candidates at once.
For each ``C`` the paper inspects ``B = C ∪ N_F(C)`` and lists all
k-cliques on B except C — complete, because every candidate of C must
lie inside B.

The index is built on the driver: with the bitset kernel, a whole
Table VII build takes less than a Spark job launch. After an update,
``swap.refresh_candidates`` patches the index by the nodes whose
free status changed and calls ``candidates_for`` only for cliques just
placed in S. ``owner_of`` is the rule both the refresh and an
insertion apply to one new clique.
"""
from __future__ import annotations

from repro.core import kernels
from repro.dynamic.state import Clique, DynamicState


def candidates_for(state: DynamicState, c: Clique) -> set[Clique]:
    """All candidate k-cliques of ``c`` per Definition in Section V-A:
    k-cliques on ``B = c ∪ N_F(c)`` that use at least one node of ``c``
    and at least one free node (so are not ``c`` itself). Each is listed
    once, from its lowest member x of ``c``, over N_F(c) and the members
    of ``c`` after x."""
    free = state.free_neighbors(c)
    out: set[Clique] = set()
    for i, x in enumerate(c):
        out.update(kernels.cliques_in_subset(state.adj, free.union(c[i + 1:]), state.k,
                                             containing=(x,)))
    out.discard(c)
    return out


def owner_of(state: DynamicState, clique: Clique) -> Clique | None:
    """The clique of S that ``clique`` is a candidate of: the one clique
    holding every non-free node of ``clique``, provided ``clique`` also
    has a free node. None when there is no such clique."""
    node2c = state.node2c
    held = {node2c[v] for v in clique if v in node2c}
    owner = held.pop() if len(held) == 1 else None
    return owner if owner != clique else None


def build_index(state: DynamicState) -> None:
    """Driver-side Algorithm 5: recompute the whole candidate index."""
    for c in list(state.cand):
        state.cand[c] = candidates_for(state, c)


def build_index_spark(spark, state: DynamicState) -> int:
    """``build_index``, then the index size; ``spark`` is unused. Kept
    under this name because the benchmark in ``perfbench/`` calls it."""
    build_index(state)
    return index_size(state)


def index_size(state: DynamicState) -> int:
    return sum(len(v) for v in state.cand.values())


def settle_free(state: DynamicState, seeds) -> list[Clique]:
    """Restore maximality around the given (just freed) nodes: while a
    k-clique exists among free nodes touching a seed, add it to S.
    Returns the cliques added. Candidate bookkeeping is left to the
    caller, which passes the seeds and the added cliques' nodes to
    ``swap.refresh_candidates``."""
    node2c = state.node2c
    added: list[Clique] = []
    # Last seed first: S depends on this order.
    for u in reversed([int(s) for s in seeds]):
        if u in node2c:
            continue
        free_around = {w for w in state.adj.get(u, ()) if w not in node2c}
        got = kernels.cliques_in_subset(state.adj, free_around, state.k, containing=(u,),
                                        first=True)
        if got:
            added.append(state.add_to_S(got[0]))
    return added
