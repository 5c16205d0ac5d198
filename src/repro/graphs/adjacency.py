"""Total orderings, DAG orientation and the oriented table (numpy).

All static algorithms in the paper share the same preparation: pick a
total node ordering ``eta``, orient each undirected edge from the
higher-``eta`` endpoint to the lower one (``u -> v`` iff
``eta(u) > eta(v)``), and enumerate each k-clique exactly once from
its highest-``eta`` member. Both orderings (degree, then node score)
and the orientation are computed on the driver from the numpy edge
array; the result is one :class:`Oriented` table of compact arrays,
which is what the enumeration kernels consume.
``repro.core.prepare.Prepared`` runs the sequence once per (graph, k),
and hands the kernels each table through :func:`keep_clique_arcs`,
which drops the arcs that can lie in no k-clique.

A node is keyed by its dense position, its index in the ascending array
of node ids: orderings are int arrays indexed by position, and the
table's CSRs hold positions. Node ids enter once, in the edge array, and
stay only in ``Oriented.nodes``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from pyspark.sql import DataFrame

from repro.core.native import addr, lib


@dataclass(eq=False)
class Oriented:
    """One orientation as two per-source CSRs over dense positions.

    - ``nodes``: every node id, ascending; a node's dense position is its
      index here, so positions rise with id.
    - ``ptr``/``ind``: the out-neighbours of position ``p`` are the
      positions ``ind[ptr[p]:ptr[p+1]]``, ascending.
    - ``tptr``/``tri``: the orientation's triangles, grouped by source.
      Row ``(i, j)`` of ``tri[tptr[p]:tptr[p+1]]`` is a pair of local
      indices into the out-neighbours of ``p``: with ``a = ptr[p]``,
      ``ind[a+j]`` is an out-neighbour of ``ind[a+i]``. These pairs are
      the edges of the local subgraph on N+(p) that the kernels search.
      After :func:`keep_clique_arcs` they are that local subgraph on the
      kept out-neighbours, which the kept arcs alone no longer hold.
    """

    nodes: np.ndarray
    ptr: np.ndarray
    ind: np.ndarray
    tptr: np.ndarray
    tri: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def addrs(self) -> tuple[int, int, int, int]:
        """The addresses of ``ptr``, ``ind``, ``tptr`` and ``tri``: the
        first arguments of every C kernel, which reads them in place."""
        return (addr(self.ptr, np.int64), addr(self.ind, np.int32), addr(self.tptr, np.int64),
                addr(self.tri, np.int32))

    def sources(self, k: int) -> np.ndarray:
        """Positions that can root a k-clique: out-degree >= k-1."""
        return np.flatnonzero(np.diff(self.ptr) >= k - 1)


def _table(nodes: np.ndarray, key: np.ndarray) -> Oriented:
    """The table of the arcs with keys ``pos(u) * n + pos(v)`` (sorted here,
    in place), and its triangles, found by the C search (``triangles`` in
    ``repro/core/_kernels.c``): one pass counts the rows of each source,
    the next fills them."""
    n = len(nodes)
    if n >= 2**31:
        raise ValueError(f"{n} nodes: positions must fit in int32")
    key.sort()  # arcs ordered by (source, target)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=ptr[1:])
    ind = (key % n).astype(np.int32)
    tptr = np.empty(n + 1, dtype=np.int64)
    args = (n, ptr.ctypes.data, ind.ctypes.data, tptr.ctypes.data)
    rows = lib.triangles(*args, None)
    tri = np.empty((max(rows, 0), 2), dtype=np.int32)
    if rows < 0 or lib.triangles(*args, tri.ctypes.data) != rows:
        raise MemoryError("the triangle search could not allocate its marks")
    return Oriented(nodes, ptr, ind, tptr, tri)


# No caller; kept because perfbench.tracing.LAYERS looks this name up.
def collect_out_adjacency(oriented_df: DataFrame) -> Oriented:
    """Oriented ``(src, dst)`` DataFrame as the table over its endpoints."""
    pdf = oriented_df.toPandas()
    src, dst = pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    return _table(nodes, np.searchsorted(nodes, src) * len(nodes) + np.searchsorted(nodes, dst))


def adj_sets(edges: np.ndarray) -> dict[int, set[int]]:
    """Undirected adjacency as mutable ``{u: set(neighbours)}`` — the
    representation the dynamic-maintenance code mutates per edge."""
    out: dict[int, set[int]] = {}
    for u, v in edges:
        out.setdefault(int(u), set()).add(int(v))
        out.setdefault(int(v), set()).add(int(u))
    return out


def orient_by_rank(
    edges: np.ndarray, nodes: np.ndarray, rank: np.ndarray, live: np.ndarray | None = None
) -> Oriented:
    """DAG orientation (Algorithm 1 line 3): ``u -> v`` iff
    ``rank[pos(u)] > rank[pos(v)]``, as the table over ``nodes`` (every
    endpoint id, ascending; ``rank`` is indexed by position). With
    ``live``, a boolean mask over positions, only the edges whose two
    endpoints are live are oriented; ``nodes`` stays whole."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pu, pv = np.searchsorted(nodes, edges[:, 0]), np.searchsorted(nodes, edges[:, 1])
    if live is not None:
        both = live[pu] & live[pv]
        pu, pv = pu[both], pv[both]
    down = rank[pu] < rank[pv]
    pu[down], pv[down] = pv[down], pu[down]
    pu *= len(nodes)
    pu += pv  # the arc keys pos(u) * n + pos(v), higher rank first
    return _table(nodes, pu)


def keep_clique_arcs(t: Oriented, k: int) -> Oriented:
    """``t`` without the arcs that lie in no k-clique rooted at their
    source.

    An arc ``u -> x`` of a k-clique rooted at ``u`` has ``x`` adjacent to
    the other k-2 members inside N+(u), so its count of triangle rows of
    ``u`` (x's degree in u's local subgraph) is at least k-2; the arcs
    below that are dropped, and so are the triangle rows through them.
    The surviving rows keep their pair, re-indexed into the shorter
    out-neighbour lists: a row ``(u; x, y)`` is the edge x-y inside
    N+(u), which stays when the arc ``x -> y`` left x's own list, so the
    rows cannot be rebuilt from the kept arcs.
    """
    n = t.n
    tsrc = np.repeat(np.arange(n), np.diff(t.tptr))
    at = t.ptr[tsrc][:, None] + t.tri  # each row's two arcs
    keep = np.bincount(at.reshape(-1), minlength=len(t.ind)) >= k - 2
    rows = keep[at].all(axis=1)
    before = np.zeros(len(keep) + 1, dtype=np.int64)  # kept arcs before each arc
    np.cumsum(keep, out=before[1:])
    ptr = before[t.ptr]
    tsrc = tsrc[rows]
    tri = (before[at[rows]] - ptr[tsrc][:, None]).astype(np.int32)
    tptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tsrc, minlength=n), out=tptr[1:])
    return Oriented(t.nodes, ptr, t.ind[keep], tptr, tri)


def rank_by_degree(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every node id, ascending, and the degree ordering (Section IV-A)
    over their positions: larger degree => larger rank, ties broken by
    node id."""
    nodes, deg = np.unique(np.asarray(edges, dtype=np.int64), return_counts=True)
    return nodes, _rank(deg)


def rank_from_scores(scores: np.ndarray) -> np.ndarray:
    """Score ordering (Algorithm 3 line 3) over positions: ``eta(u) <
    eta(v)  =>  s_n(u) <= s_n(v)``, ties by node id."""
    return _rank(scores)


def _rank(key: np.ndarray) -> np.ndarray:
    """The rank of each position in ascending ``(key, position)`` order;
    positions rise with id, so ties go by id."""
    rank = np.empty(len(key), dtype=np.int64)
    rank[np.argsort(key, kind="stable")] = np.arange(len(key))
    return rank
