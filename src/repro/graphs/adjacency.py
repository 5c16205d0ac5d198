"""Total orderings, DAG orientation and the oriented table.

All static algorithms in the paper share the same preparation: pick a
total node ordering ``eta``, orient each undirected edge from the
higher-``eta`` endpoint to the lower one (``u -> v`` iff
``eta(u) > eta(v)``), and enumerate each k-clique exactly once from
its highest-``eta`` member. Both orderings (degree, then node score)
are computed on the driver from the numpy edge array, and each
orientation is one :class:`Oriented` table of compact arrays, which is
what the enumeration kernels consume, built by one C call that also
drops the arcs that can lie in no k-clique.
``repro.core.prepare.Prepared`` runs the sequence once per (graph, k).

A node is keyed by its dense position, its index in the ascending array
of node ids: orderings are int arrays indexed by position, and the
table's CSRs hold positions. Node ids enter once, in the edge array:
:func:`rank_by_degree` maps each edge's endpoints to positions once,
every orientation is built from those, and the ids stay only in
``Oriented.nodes``.
"""
from __future__ import annotations

import ctypes
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
      the edges of the local subgraph on N+(p) that the kernels search:
      on the kept out-neighbours (see :func:`orient_by_rank`), which the
      kept arcs alone no longer hold.
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


# No caller; kept because perfbench.tracing.LAYERS looks this name up.
def collect_out_adjacency(oriented_df: DataFrame) -> Oriented:
    """Oriented ``(src, dst)`` DataFrame as the table over its endpoints,
    every arc kept as it stands."""
    pdf = oriented_df.toPandas()
    arcs = np.column_stack((pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)))
    nodes = np.unique(arcs)
    return orient_by_rank(nodes, positions(nodes, arcs), None, 2)


def adj_sets(edges: np.ndarray) -> dict[int, set[int]]:
    """Undirected adjacency as mutable ``{u: set(neighbours)}`` — the
    representation the dynamic-maintenance code mutates per edge."""
    out: dict[int, set[int]] = {}
    for u, v in edges:
        out.setdefault(int(u), set()).add(int(v))
        out.setdefault(int(v), set()).add(int(u))
    return out


def orient_by_rank(nodes: np.ndarray, pos: np.ndarray, rank: np.ndarray | None, k: int,
                   live: np.ndarray | None = None) -> Oriented:
    """DAG orientation (Algorithm 1 line 3) as the table over ``nodes``
    (every node id, ascending), keeping only the arcs that can lie in a
    k-clique.

    ``pos`` holds each edge's two endpoints as positions, an int64
    ``(m, 2)`` array, and ``rank`` is indexed by position: the edge is the
    arc ``u -> v`` iff ``rank[u] > rank[v]`` (None: each row is an arc as
    it stands). With ``live``, a boolean mask over positions, only the
    edges whose two endpoints are live are oriented; ``nodes`` stays
    whole.

    An arc ``u -> x`` of a k-clique rooted at ``u`` has ``x`` adjacent to
    the other k-2 members inside N+(u), so its count of triangle rows of
    ``u`` (x's degree in u's local subgraph) is at least k-2; the arcs
    below that are dropped, and so are the triangle rows through them
    (k <= 2 keeps every arc). The surviving rows keep their pair,
    re-indexed into the shorter out-neighbour lists: a row ``(u; x, y)``
    is the edge x-y inside N+(u), which stays when the arc ``x -> y`` left
    x's own list, so the rows cannot be rebuilt from the kept arcs.

    One C call (``orient`` in ``repro/core/_kernels.c``) orients, builds
    the CSR, searches each source's triangles once and filters; it grows
    its own buffer of kept rows, which is copied into ``tri`` and freed.
    """
    n, m = len(nodes), len(pos)
    if n >= 2**31:
        raise ValueError(f"{n} nodes: positions must fit in int32")
    if np.shape(pos) != (m, 2) or (m and not 0 <= pos.min() <= pos.max() < n):
        raise ValueError(f"pos must be an (m, 2) array of positions below {n}")
    ptr, ind, tptr = np.empty(n + 1, np.int64), np.empty(m, np.int32), np.empty(n + 1, np.int64)
    buf = ctypes.c_void_p()
    rows = lib.orient(n, m, addr(pos, np.int64, m), addr(rank, np.int64, n), addr(live, np.bool_, n), k,
                      ptr.ctypes.data, ind.ctypes.data, tptr.ctypes.data, ctypes.byref(buf))
    tri = take(rows, buf, 2, "the table builder")
    return Oriented(nodes, ptr, ind[:ptr[n]].copy(), tptr, tri)


def take(rows: int, buf: ctypes.c_void_p, width: int, what: str) -> np.ndarray:
    """The ``rows`` int32 rows of ``width`` entries that a C kernel wrote
    into ``buf``, a buffer it allocated, copied out; ``buf`` is released.
    A negative ``rows`` means the kernel could not allocate: MemoryError."""
    try:
        if rows < 0:
            raise MemoryError(f"{what} could not allocate its arrays")
        out = np.empty((rows, width), dtype=np.int32)
        ctypes.memmove(out.ctypes.data, buf, out.nbytes)
    finally:
        lib.release(buf)
    return out


def positions(keys: np.ndarray, ids) -> np.ndarray:
    """Each of ``ids`` as its index in ``keys``, distinct int64 ids in any
    order: an int64 array of the shape of ``ids``, from one C call (the
    open-addressing map ``index_of`` in ``repro/core/_kernels.c``).
    KeyError if an id is not a key; no index is then returned."""
    query = np.ascontiguousarray(ids, dtype=np.int64)
    out = np.empty(query.shape, dtype=np.int64)
    miss = lib.index_of(len(keys), addr(keys, np.int64), query.size, addr(query.reshape(-1), np.int64),
                        addr(out.reshape(-1), np.int64))
    if miss < 0:
        raise MemoryError("the id map could not allocate its table")
    if miss:
        raise KeyError(f"{miss} ids are not keys, e.g. {query[out < 0][:3].tolist()}")
    return out


def rank_by_degree(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node id, ascending; each edge's two endpoints as positions
    (indices into the ids), an int64 ``(m, 2)`` array; and the degree
    ordering (Section IV-A) over the positions: larger degree => larger
    rank, ties broken by node id. One ``np.unique`` finds the ids, the id
    map the positions, and a ``bincount`` of those the degrees."""
    edges = np.asarray(edges, dtype=np.int64)
    nodes = np.unique(edges)
    pos = positions(nodes, edges).reshape(-1, 2)
    return nodes, pos, _rank(np.bincount(pos.reshape(-1), minlength=len(nodes)))


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
