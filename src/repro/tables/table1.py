"""Table I: dataset statistics — n, m, number of k-cliques, k=3..6,
counted on the driver (no SparkSession)."""
from __future__ import annotations

import pandas as pd

from repro.core import clique_listing
from repro.core.prepare import Prepared
from repro.graphs import datasets
from repro.tables import common


def run(
    names: list[str] | None = None,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    max_seconds: float = common.DEFAULT_MAX_SECONDS,
) -> pd.DataFrame:
    names = names or list(datasets.DATASETS)
    rows = []
    for name in names:
        e = datasets.edges(name)
        spec = datasets.DATASETS[name]
        row = {
            "Name": name,
            "n": int(e.max()) + 1 if len(e) else 0,
            "m": len(e),
            "scale": spec.scale,
            "paper_n": spec.paper_n,
            "paper_m": spec.paper_m,
        }
        for k in ks:
            budget = common.fresh_budget(max_seconds=max_seconds)
            status, out, secs = common.run_cell(
                lambda: clique_listing.count_kcliques(Prepared(e, k), budget)
            )
            row[f"k={k}"] = common.cell(status, out)
            row[f"t{k}(s)"] = round(secs, 2)
        rows.append(row)
        print(pd.DataFrame([row]).to_string(index=False))
    return pd.DataFrame(rows)
