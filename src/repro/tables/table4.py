"""Table IV: LP vs the exact solution on 6 small graphs (error ratio).

A view of Table II: ``run`` takes the LP and OPT cells of ``table2.run``
on the small graphs, and ``error_rows`` adds the error ratio.
"""
from __future__ import annotations

import pandas as pd

from repro.graphs import datasets
from repro.tables import table2

# OPT's cell is OOM past this many cliques or clique-graph edges.
OPT_MAX_CLIQUES = 200_000


def run(
    names: list[str] | None = None,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    opt_max_seconds: float = 60.0,
) -> pd.DataFrame:
    t2 = table2.run(names or list(datasets.SMALL_DATASETS), ks, ("LP", "OPT"),
                    max_cliques=OPT_MAX_CLIQUES, opt_max_seconds=opt_max_seconds)
    return error_rows(t2)


def error_rows(table2_df: pd.DataFrame) -> pd.DataFrame:
    """LP, OPT and the error ratio (OPT − LP) / OPT of a Table II frame;
    an exact cell (LP = OPT, OPT 0 included) reads ``0%``, as in the
    paper."""
    df = table2_df.rename(columns={"Name": "Dataset"})
    df["LP"] = df["LP"].astype(int)
    df["ER"] = ["-" if not str(o).isdigit() else "0%" if int(o) == lp
                else f"{(int(o) - lp) / int(o):.2%}" for lp, o in zip(df["LP"], df["OPT"])]
    return df[["Dataset", "n", "m", "k", "LP", "OPT", "t_OPT(s)", "ER"]]
