"""Enumeration and search kernels over an oriented adjacency.

The per-source recursions every algorithm in the paper is built from.
The four oriented kernels are C functions of ``repro/core/_kernels.c``
(built by :mod:`repro.core.native`), called through ``ctypes`` once per
source or recompute; the loops over the sources stay with their callers,
so a budget is checked once per source. The one exception is
:func:`node_scores`, the unbudgeted count of ``Prepared.scores``, whose
loop over the sources runs in C.

``adj`` is an :class:`~repro.graphs.adjacency.Oriented` table: the DAG
orientation (``eta(u) > eta(v)``), so each k-clique is enumerated once,
from its highest-``eta`` member (kClist, Danisch et al., WWW 2018), and
its triangles. Kernels know nodes by dense position (ascending id):
cliques come back as positions, scores and counts are int64 arrays over
positions, and ``valid`` is an optional boolean mask over them; masking
out the nodes of S "removes" chosen cliques without a rebuild. Per
source, the kernels search kClist's local subgraph on N+(u) as
``uint64`` bitmasks and visit candidates in ascending id, so listing
order, FindOne's first clique and FindMin's ``visited`` are those of a
recursion over sorted id arrays. The tests keep the Python recursions
they replaced as oracles, with identical results required.

The dynamic layer (Algorithms 5-7) works on mutable adjacency sets.
The whole candidate index of Algorithm 5 is one C call,
:func:`candidate_index`, on a CSR snapshot of those sets: per clique C
of S, the same bitmask recursion on ``B = C ∪ N_F(C)``. Per-update
listing stays in Python, in ``cliques_in_subset``: the same recursion
over the sets, on the common neighbours of the required nodes inside an
allowed set, oriented by id.
"""
from __future__ import annotations

import ctypes

import numpy as np

from repro.core.native import addr as _addr, lib
from repro.graphs.adjacency import Oriented, take


def _args(adj: Oriented, source: int, k: int) -> tuple:
    """The first arguments of every kernel; ``source`` must be a position,
    since C reads ``ptr[source + 1]``."""
    if not 0 <= source < adj.n:
        raise IndexError(f"source {source} is not a position of the table")
    return (*adj.addrs, source, k)


def _ok(ret: int) -> int:
    if ret < 0:
        raise MemoryError("a C kernel could not allocate its local subgraph")
    return ret


def enumerate_from_source(adj: Oriented, source: int, k: int, valid: np.ndarray | None = None,
                          out: np.ndarray | None = None) -> np.ndarray:
    """All k-cliques whose highest-``eta`` member is ``source``, as the
    rows of an int32 ``(n, k)`` array: ``source``, then the members in the
    order the recursion fixed them (sorted, the canonical clique identity).
    With ``out``, an int32 array of k columns, they are written into its
    first rows, which are returned; ValueError if it has too few rows.
    """
    mask = _addr(valid, np.bool_, adj.n)
    if out is None:
        n = _ok(lib.enumerate_from_source(*_args(adj, source, k), mask, None, 0))
        out = np.empty((n, k), dtype=np.int32)
    if out.ndim != 2 or out.shape[1] != k:
        raise ValueError(f"out must have k = {k} columns")
    n = _ok(lib.enumerate_from_source(*_args(adj, source, k), mask, _addr(out, np.int32), len(out)))
    if n > len(out):
        raise ValueError(f"source {source} roots {n} cliques, more than the {len(out)} rows of out")
    return out[:n]


def count_from_source(adj: Oriented, source: int, k: int, counts: np.ndarray) -> None:
    """Add the k-clique membership counts (node scores, Def. 5) of the
    cliques rooted at ``source`` into ``counts``, an int64 array over
    positions, without storing any clique (Algorithm 3 line 2). The local
    subgraph is taken undirected; each (k-1)-clique of it is reached once,
    from its lowest local node, and a node is credited once per branch."""
    _ok(lib.count_from_source(*_args(adj, source, k), _addr(counts, np.int64, adj.n)))


def node_scores(adj: Oriented, k: int) -> np.ndarray:
    """The node scores ``s_n`` (Def. 5) by position, an int64 array:
    :func:`count_from_source` from every source, in one C call."""
    counts = np.zeros(adj.n, dtype=np.int64)
    _ok(lib.node_scores(*adj.addrs, adj.n, k, _addr(counts, np.int64, adj.n)))
    return counts


def find_first_clique(adj: Oriented, source: int, k: int,
                      valid: np.ndarray | None) -> tuple[int, ...] | None:
    """Algorithm 1's ``FindOne``: the first k-clique among the (still
    valid) out-neighbours of ``source``, as a sorted tuple: the listing
    recursion, stopped at its first clique."""
    out = (ctypes.c_int32 * k)()
    found = _ok(lib.find_first_clique(*_args(adj, source, k), _addr(valid, np.bool_, adj.n), out))
    return tuple(out) if found else None


def find_min_clique(adj: Oriented, scores: np.ndarray, source: int, k: int,
                    valid: np.ndarray | None = None, prune: bool = True,
                    ) -> tuple[int, tuple[int, tuple[int, ...]] | None]:
    """Algorithm 3's ``FindMin``: the minimum-clique-score k-clique
    rooted at ``source``, with the score-driven pruning strategy;
    ``scores``, an int64 array, holds the node score of each position.

    Total clique order is ``(s_c(C), sorted member tuple)`` — the fixed
    tie-break that makes Theorem 4 hold exactly (GC and L/LP return the
    identical S). Pruning therefore cuts a branch only when the partial
    score strictly exceeds the best score (a tie could still win).

    Returns ``(visited, found)``: ``found`` is ``(clique_score,
    members)`` or None, and ``visited`` sums the sizes of the candidate
    sets the recursion enters, to measure what pruning saves (L = no
    pruning vs LP = pruning; paper Fig. 6's L-vs-LP gap).
    """
    best, members = (ctypes.c_int64 * 2)(), (ctypes.c_int32 * k)()
    visited = _ok(lib.find_min_clique(*_args(adj, source, k), _addr(valid, np.bool_, adj.n),
                                      _addr(scores, np.int64, adj.n), prune, best, members))
    return visited, ((best[1], tuple(members)) if best[0] else None)


# ---- undirected-neighbourhood kernels (dynamic maintenance) ------------

def candidate_index(ptr: np.ndarray, nbr: np.ndarray, members: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 5's whole index in one C call, over rows of a CSR
    snapshot (the neighbours of row ``i`` are ``nbr[ptr[i]:ptr[i+1]]``,
    int64 rows) and the cliques of S as the rows of ``members``, an int64
    ``(len(S), k)`` array, each in ascending id. Per clique ``c`` it lists,
    as :func:`~repro.dynamic.index.candidates_for` does, the k-cliques of
    ``B = c ∪ N_F(c)`` with a member of ``c``, each once, from its lowest
    member of ``c``, and drops ``c``. Returns the number of candidates of
    each clique, an int64 array, and their rows, an int32 ``(total, k)``
    array grouped by clique in S order, members unsorted."""
    n = len(ptr) - 1
    if n >= 2**31:
        raise ValueError(f"{n} nodes: rows must fit in int32")
    if k < 2 or np.shape(members) != (len(members), k):
        raise ValueError(f"members must be a (len(S), k) array with k = {k} >= 2")
    if ptr[0] != 0 or (np.diff(ptr) < 0).any() or any(
            len(a) and not 0 <= a.min() <= a.max() < n for a in (nbr[:ptr[-1]], members)):
        raise ValueError(f"ptr must rise from 0, and nbr and members must hold rows below {n}")
    counts, buf = np.zeros(len(members), dtype=np.int64), ctypes.c_void_p()
    total = lib.candidate_index(n, _addr(ptr, np.int64, n + 1), _addr(nbr, np.int64, ptr[-1]), len(members),
                                k, _addr(members, np.int64), _addr(counts, np.int64), ctypes.byref(buf))
    return counts, take(total, buf, k, "the index builder")


def _enum_rec(ids, masks, cand, need, prefix, out, first=False):
    """Append the cliques below ``prefix`` to ``out``, each as the flat
    run ``prefix`` plus its leaf member; with ``first``, stop at the
    first one and return True."""
    rest = cand
    if need == 1:
        while rest:
            low = rest & -rest
            rest ^= low
            out += prefix
            out.append(ids[low.bit_length() - 1])
            if first:
                return True
        return False
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        nxt = cand & masks[i]
        if nxt.bit_count() >= need - 1:
            if _enum_rec(ids, masks, nxt, need - 1, prefix + (ids[i],), out, first):
                return True
    return False


def cliques_in_subset(
    adj_sets: dict[int, set[int]],
    allowed: set[int],
    k: int,
    containing: tuple[int, ...] = (),
    first: bool = False,
) -> list[tuple[int, ...]]:
    """All k-cliques made of the nodes of ``containing`` and nodes of
    ``allowed``, in ascending member-tuple order; with ``first``, only
    the first of them (a list of at most one).

    The recursion of the oriented kernels, on the common neighbours of
    ``containing`` inside ``allowed``: relabelled in ascending id, each
    with a mask of its higher-id neighbours, so each clique is reached
    once.
    """
    cand = allowed  # read only, so not copied
    for i, u in enumerate(containing):
        nb = adj_sets.get(u, set())
        if not nb.issuperset(containing[i + 1:]):
            return []
        cand = nb & cand
    need = k - len(containing)
    if need <= 0 or len(cand) < need:
        return [tuple(sorted(containing))] if need == 0 else []
    ids = sorted(cand)
    pos = {v: i for i, v in enumerate(ids)}
    masks = [0] * len(ids)
    for i, v in enumerate(ids):
        for w in cand & adj_sets.get(v, set()):
            j = pos[w]
            if j > i:
                masks[i] |= 1 << j
    out: list[int] = []
    _enum_rec(ids, masks, (1 << len(ids)) - 1, need, tuple(containing), out, first)
    if not out:
        return []
    return [tuple(sorted(c)) for c in zip(*[iter(out)] * k)]
