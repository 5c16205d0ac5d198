"""Table VII: indexing time and index size (number of candidate cliques).

Pipeline per (dataset, k), in ``indexed_state``: LP computes S, then
Algorithm 5 builds the candidate index on the driver; we report the
build wall time and the index size, as the paper does. Table VIII starts
its update runs from states built the same way.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core import lp
from repro.core.prepare import Prepared
from repro.dynamic import index as idx_mod
from repro.dynamic import state as st_mod
from repro.graphs import datasets


def build_state(e: np.ndarray, k: int) -> st_mod.DynamicState:
    """LP from scratch + node scores -> a DynamicState ready for
    indexing; its initial S is LP's. perfbench calls it directly."""
    prep = Prepared(e, k)
    S, scores = lp.solve(prep).S, dict(zip(prep.nodes.tolist(), prep.scores.tolist()))
    del prep  # free its adjacencies before the state builds its own
    return st_mod.from_edges(e, k, S, scores)


def indexed_state(e: np.ndarray, k: int) -> tuple[st_mod.DynamicState, float]:
    """``build_state``, then Algorithm 5's index on it: the state and the
    index build's wall seconds (shared by the Table VII/VIII harnesses)."""
    state = build_state(e, k)
    t0 = time.monotonic()
    idx_mod.build_index(state)
    return state, time.monotonic() - t0


def run(names: list[str] | None = None, ks: tuple[int, ...] = (3, 4, 5, 6)) -> pd.DataFrame:
    names = names or list(datasets.DATASETS)
    rows = []
    for name in names:
        e = datasets.edges(name)
        row: dict = {"Dataset": name}
        for k in ks:
            state, secs = indexed_state(e, k)
            row[f"time_k{k}(ms)"] = round(secs * 1e3, 1)
            row[f"size_k{k}"] = idx_mod.index_size(state)
        rows.append(row)
        print(pd.DataFrame([row]).to_string(index=False))
    return pd.DataFrame(rows)
