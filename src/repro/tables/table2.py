"""Table II: size of S for OPT, HG, GC(Δ), LP(Δ) across datasets and k.

Δ for GC/LP is reported relative to HG, as in the paper. Also records
the per-algorithm runtime (the paper's Fig. 6 uses the same runs) and
the counters Table III's space proxies need.
"""
from __future__ import annotations

import pandas as pd

from repro.core import opt
from repro.core.prepare import Prepared
from repro.graphs import datasets
from repro.tables import common


def run(
    names: list[str] | None = None,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    algos: tuple[str, ...] = ("OPT", "HG", "GC", "LP"),
    max_cliques: int = common.DEFAULT_MAX_CLIQUES,
    max_seconds: float = common.DEFAULT_MAX_SECONDS,
    opt_max_seconds: float = 60.0,
) -> pd.DataFrame:
    """One row per (dataset, k): sizes, deltas, runtimes, counters."""
    names = names or list(datasets.DATASETS)
    rows = []
    for name in names:
        e = datasets.edges(name)
        for k in ks:
            row: dict = {"Name": name, "k": k, "n": int(e.max()) + 1, "m": len(e)}
            row.update(common.heuristic_cells(e, k, algos, max_cliques, max_seconds))
            if "OPT" in algos:
                budget = common.fresh_budget(max_cliques, opt_max_seconds)
                st, out, secs = common.run_cell(lambda: opt.solve(Prepared(e, k), budget))
                row["OPT"] = common.cell(st, getattr(out, "size", None))
                row["t_OPT(s)"] = round(secs, 2)
            rows.append(row)
            print(pd.DataFrame([row]).to_string(index=False))
    return pd.DataFrame(rows)
