"""Shared harness plumbing: timed runs, budget-to-cell mapping, and the
HG → GC(Δ) → LP(Δ) cells of Table II and Tables V-VI."""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core import gc, hg, lp
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT
from repro.core.prepare import Prepared

# Default budgets for harness cells: a cell becomes OOM past this many
# materialized cliques (GC / OPT's clique graph), OOT past the wall
# budget. Scaled-down analogues of the paper's 504 GB / 24 h.
DEFAULT_MAX_CLIQUES = 3_000_000
DEFAULT_MAX_SECONDS = 300.0


def fresh_budget(max_cliques=DEFAULT_MAX_CLIQUES, max_seconds=DEFAULT_MAX_SECONDS) -> Budget:
    return Budget(max_cliques=max_cliques, max_seconds=max_seconds)


def run_cell(fn, *args, **kwargs):
    """Run one harness cell; returns (status, result, seconds)."""
    t0 = time.monotonic()
    try:
        out = fn(*args, **kwargs)
        return "OK", out, time.monotonic() - t0
    except SimulatedOOM:
        return "OOM", None, time.monotonic() - t0
    except SimulatedOOT:
        return "OOT", None, time.monotonic() - t0


def cell(status: str, value) -> str:
    """Format a table cell the way the paper does."""
    return str(value) if status == "OK" else status


def heuristic_cells(
    spark: SparkSession | None,
    e: np.ndarray,
    k: int,
    algos: tuple[str, ...],
    max_cliques: int,
    max_seconds: float,
) -> dict:
    """HG, then GC and LP under fresh budgets with their Δ against HG, for
    those of them in ``algos``: size, seconds and the counter Table III
    reads, in Table II's column order. Each timed cell builds its own
    ``Prepared(e, k)``, so an algorithm's time includes its preparation;
    GC's listing and LP's HeapInit fan out on ``spark``."""
    row: dict = {}
    hg_size = None
    if "HG" in algos:
        st, out, secs = run_cell(lambda: hg.solve(Prepared(e, k)))
        hg_size = out.size if st == "OK" else None
        row["HG"] = cell(st, getattr(out, "size", None))
        row["t_HG(s)"] = round(secs, 2)
    for name, solve, counter, attr in (
        ("GC", gc.solve, "GC_n_cliques", "n_cliques"),
        ("LP", lp.solve, "LP_heap", "n_heap_init"),
    ):
        if name not in algos:
            continue
        budget = fresh_budget(max_cliques, max_seconds)
        st, out, secs = run_cell(lambda: solve(Prepared(e, k), budget=budget, spark=spark))
        ok = st == "OK"
        row[name] = cell(st, getattr(out, "size", None))
        row[f"{name}_delta"] = out.size - hg_size if ok and hg_size is not None else None
        row[f"t_{name}(s)"] = round(secs, 2)
        row[counter] = getattr(out, attr) if ok else None
    return row
