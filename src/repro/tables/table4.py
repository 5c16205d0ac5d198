"""Table IV: LP vs the exact solution on 6 small graphs (error ratio)."""
from __future__ import annotations

import pandas as pd

from repro.core import lp, opt
from repro.core.prepare import Prepared
from repro.graphs import datasets
from repro.tables import common

# OPT's cell is OOM past this many cliques or clique-graph edges.
OPT_MAX_CLIQUES = 200_000


def run(
    names: list[str] | None = None,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    opt_max_seconds: float = 60.0,
) -> pd.DataFrame:
    names = names or list(datasets.SMALL_DATASETS)
    rows = []
    for name in names:
        e = datasets.edges(name)
        for k in ks:
            row = {"Dataset": name, "n": int(e.max()) + 1, "m": len(e), "k": k}
            lp_res = lp.solve(Prepared(e, k))
            row["LP"] = lp_res.size
            budget = common.fresh_budget(OPT_MAX_CLIQUES, opt_max_seconds)
            st, opt_res, secs = common.run_cell(lambda: opt.solve(Prepared(e, k), budget))
            row["OPT"] = common.cell(st, getattr(opt_res, "size", None))
            row["t_OPT(s)"] = round(secs, 2)
            if st == "OK" and opt_res.size > 0:
                row["ER"] = f"{(opt_res.size - lp_res.size) / opt_res.size:.2%}"
            elif st == "OK":
                row["ER"] = "0%"
            else:
                row["ER"] = "-"
            rows.append(row)
            print(pd.DataFrame([row]).to_string(index=False))
    return pd.DataFrame(rows)
