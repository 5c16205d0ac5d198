"""Deterministic synthetic graph generators (numpy, no network access).

All generators return a canonical undirected edge array of shape
``(m, 2)`` with ``int64`` node ids in ``[0, n)``, each row ``u < v``,
no self-loops, no duplicates, sorted lexicographically. Determinism in
``seed`` is required so tests, the DuckDB oracle, and benchmarks all
see identical graphs.

Models:

- :func:`erdos_renyi` — G(n, m) uniform random edges.
- :func:`watts_strogatz` — ring lattice + rewiring; the model the
  paper uses for its synthetic scalability study (Tables V-VI).
- :func:`powerlaw_cluster` — Holme–Kim preferential attachment with
  triad formation; stand-in for the real social graphs (heavy-tail
  degrees + high clustering + k-clique blow-up with k).
- :func:`planted_partition` — dense communities with sparse
  inter-community edges; stand-in for the small Football-style graphs.
"""
from __future__ import annotations

import functools

import numpy as np


def _canonical(edges: np.ndarray) -> np.ndarray:
    """Dedupe/sort an edge array into the canonical ``u < v`` form."""
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64)
    e = e[e[:, 0] != e[:, 1]]
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    e = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return e


def _memo(fn):
    """Memoize a generator and keep its arrays read-only: generation
    (esp. Holme–Kim) is a Python loop, and benchmarks and tests generate
    the same graphs repeatedly. The benchmark empties each memo with its
    ``cache_clear`` so that every set-up generates afresh."""

    @functools.lru_cache(maxsize=64)
    @functools.wraps(fn)
    def cached(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.setflags(write=False)
        return out

    return cached


@_memo
def erdos_renyi(n: int, m: int, seed: int = 0) -> np.ndarray:
    """Uniform random graph with ``n`` nodes and (about) ``m`` edges."""
    g = np.random.default_rng(seed)
    # Oversample to survive dedupe/self-loop removal, then trim.
    cand = g.integers(0, n, size=(int(m * 1.3) + 16, 2))
    e = _canonical(cand)
    if len(e) > m:
        e = e[g.choice(len(e), size=m, replace=False)]
    return _canonical(e)


@_memo
def watts_strogatz(n: int, k_nn: int, p: float, seed: int = 0) -> np.ndarray:
    """Watts–Strogatz small-world graph: ring lattice with ``k_nn``
    nearest neighbours (``k_nn`` even), each lattice endpoint rewired
    with probability ``p``. Average degree ≈ ``k_nn``."""
    if k_nn % 2 != 0:
        raise ValueError("k_nn must be even")
    g = np.random.default_rng(seed)
    rows = []
    src = np.arange(n, dtype=np.int64)
    for j in range(1, k_nn // 2 + 1):
        dst = (src + j) % n
        rewire = g.random(n) < p
        dst = dst.copy()
        dst[rewire] = g.integers(0, n, size=int(rewire.sum()))
        rows.append(np.stack([src, dst], axis=1))
    return _canonical(np.concatenate(rows))


@_memo
def powerlaw_cluster(n: int, m_per_node: int, p_triad: float, seed: int = 0) -> np.ndarray:
    """Holme–Kim powerlaw-cluster graph: each new node attaches
    ``m_per_node`` edges; after a preferential-attachment step, with
    probability ``p_triad`` the next edge closes a triangle with a
    random neighbour of the previous target. Produces heavy-tailed
    degrees and high clustering — the regime where the paper's
    k-clique counts explode with ``k``."""
    if n <= m_per_node:
        raise ValueError("n must exceed m_per_node")
    g = np.random.default_rng(seed)
    # repeated_nodes implements preferential attachment by degree.
    repeated: list[int] = list(range(m_per_node))
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    edges: list[tuple[int, int]] = []

    def add_edge(u: int, v: int) -> bool:
        if u == v or v in adj[u]:
            return False
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v))
        repeated.append(u)
        repeated.append(v)
        return True

    for u in range(m_per_node, n):
        # First edge: pure preferential attachment.
        target = int(repeated[g.integers(0, len(repeated))])
        while not add_edge(u, target):
            target = int(repeated[g.integers(0, len(repeated))])
        added = 1
        prev = target
        while added < m_per_node:
            if g.random() < p_triad and adj[prev] - adj[u] - {u}:
                pool = list(adj[prev] - adj[u] - {u})
                cand = int(pool[g.integers(0, len(pool))])
                if add_edge(u, cand):
                    added += 1
                    prev = cand
                    continue
            cand = int(repeated[g.integers(0, len(repeated))])
            if add_edge(u, cand):
                added += 1
                prev = cand
    return _canonical(np.array(edges, dtype=np.int64))


def dense_overlay(
    base: np.ndarray,
    n: int,
    n_blocks: int,
    block_size: int,
    p_in: float,
    seed: int = 0,
) -> np.ndarray:
    """Union of ``base`` with ``n_blocks`` random near-clique blocks of
    ``block_size`` nodes each (block edge probability ``p_in``).

    Real social graphs have dense cores that make the number of
    k-cliques *grow* with k (Table I of the paper: Facebook's counts go
    1.6M -> 7.8B from k=3 to 6); preferential-attachment models alone
    do not reproduce that, so the social-graph stand-ins overlay dense
    blocks on a Holme-Kim base (DESIGN.md §3). Cheap and vectorized —
    only the base generator needs memoization.
    """
    g = np.random.default_rng(seed)
    rows = [base] if len(base) else []
    perm = g.permutation(n).astype(np.int64)
    for b in range(n_blocks):
        lo = (b * block_size) % max(1, n - block_size)
        block = perm[lo: lo + block_size]
        iu, iv = np.triu_indices(len(block), k=1)
        keep = g.random(len(iu)) < p_in
        rows.append(np.stack([block[iu[keep]], block[iv[keep]]], axis=1))
    return _canonical(np.concatenate(rows))


@_memo
def planted_partition(
    n: int, n_communities: int, p_in: float, p_out: float, seed: int = 0
) -> np.ndarray:
    """Planted-partition graph: ``n_communities`` equal blocks, edge
    probability ``p_in`` inside a block and ``p_out`` across blocks."""
    g = np.random.default_rng(seed)
    block = np.arange(n) % n_communities
    iu, iv = np.triu_indices(n, k=1)
    same = block[iu] == block[iv]
    prob = np.where(same, p_in, p_out)
    keep = g.random(len(iu)) < prob
    return _canonical(np.stack([iu[keep], iv[keep]], axis=1))

