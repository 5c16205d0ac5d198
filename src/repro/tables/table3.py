"""Table III: space consumption proxies.

Every algorithm of a Table II row runs in one Python process, whose
peak RSS is a high-water mark over the whole run, so per-algorithm RSS
is not attributable; we report the analytic proxies that drive the
paper's table instead (DESIGN.md §3): HG holds the graph (O(m+n)); LP adds
the score array and one heap entry per source; GC additionally holds
every k-clique; OPT holds the clique graph. Bytes are computed from
the measured counts of the Table II runs.
"""
from __future__ import annotations

import pandas as pd

_B_PER_ID = 8  # int64 node id


def space_rows(table2_df: pd.DataFrame) -> pd.DataFrame:
    """Derive space proxies (MB) from a Table II result frame."""
    rows = []
    for r in table2_df.itertuples(index=False):
        n, m, k = int(r.n), int(r.m), int(r.k)
        graph_mb = (2 * m + n) * _B_PER_ID / 1e6  # edge list + index
        row = {
            "Name": r.Name,
            "k": k,
            "HG_MB": round(graph_mb, 2),
        }
        heap = getattr(r, "LP_heap", None)
        lp_status = getattr(r, "LP", None)
        if lp_status in ("OOM", "OOT"):
            row["LP_MB"] = lp_status
        else:
            extra = (n + (int(heap) if heap is not None and pd.notna(heap) else 0) * (k + 2)) * _B_PER_ID
            row["LP_MB"] = round(graph_mb + extra / 1e6, 2)
        n_cl = getattr(r, "GC_n_cliques", None)
        gc_status = getattr(r, "GC", None)
        if gc_status in ("OOM", "OOT"):
            row["GC_MB"] = gc_status
        elif n_cl is not None and pd.notna(n_cl):
            row["GC_MB"] = round(graph_mb + int(n_cl) * (k + 1) * _B_PER_ID / 1e6, 2)
        else:
            row["GC_MB"] = None
        rows.append(row)
    return pd.DataFrame(rows)
