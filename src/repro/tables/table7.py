"""Table VII: indexing time and index size (number of candidate cliques).

Pipeline per (dataset, k): LP computes S, then Algorithm 5 builds the
candidate index on the driver; we report the build wall time and the
index size, as the paper does.
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
    indexing (shared by Table VII/VIII harnesses and benchmarks)."""
    prep = Prepared(e, k)
    S, scores = lp.solve(prep).S, dict(zip(prep.nodes.tolist(), prep.scores.tolist()))
    del prep  # free its adjacencies before the state builds its own
    return st_mod.from_edges(e, k, S, scores)


def run(names: list[str] | None = None, ks: tuple[int, ...] = (3, 4, 5, 6)) -> pd.DataFrame:
    names = names or list(datasets.DATASETS)
    rows = []
    for name in names:
        e = datasets.edges(name)
        row: dict = {"Dataset": name}
        for k in ks:
            state = build_state(e, k)
            t0 = time.monotonic()
            idx_mod.build_index(state)
            secs = time.monotonic() - t0
            size = idx_mod.index_size(state)
            row[f"time_k{k}(ms)"] = round(secs * 1e3, 1)
            row[f"size_k{k}"] = size
        rows.append(row)
        print(pd.DataFrame([row]).to_string(index=False))
    return pd.DataFrame(rows)
