"""Tables V and VI: runtime and |S| on Watts–Strogatz synthetic graphs.

The paper uses n = 1M and average degree 8..64; we keep the generative
model and the degree sweep but scale n down (DESIGN.md §3). One run
produces both tables (Table V = seconds, Table VI = sizes + Δ vs HG).
"""
from __future__ import annotations

import pandas as pd

from repro.graphs import generators as gen
from repro.tables import common

DEFAULT_N = 4000
DEFAULT_DEGREES = (8, 16, 32, 64)
REWIRE_P = 0.3
COLUMNS = ["Degree", "n", "m", "k", "HG", "t_HG(s)", "GC", "t_GC(s)", "GC_delta",
           "LP", "t_LP(s)", "LP_delta"]


def run(
    n: int = DEFAULT_N,
    degrees: tuple[int, ...] = DEFAULT_DEGREES,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    max_seconds: float = common.DEFAULT_MAX_SECONDS,
) -> pd.DataFrame:
    rows = []
    for deg in degrees:
        e = gen.watts_strogatz(n, deg, REWIRE_P, seed=100 + deg)
        for k in ks:
            row: dict = {"Degree": deg, "n": n, "m": len(e), "k": k}
            row.update(common.heuristic_cells(
                e, k, ("HG", "GC", "LP"), common.DEFAULT_MAX_CLIQUES, max_seconds))
            rows.append(row)
            print(pd.DataFrame([row], columns=COLUMNS).to_string(index=False))
    return pd.DataFrame(rows, columns=COLUMNS)

