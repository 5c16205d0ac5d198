"""Table VIII (+ Fig. 7 timings): quality of S after update workloads.

Workloads follow the paper's protocol per (dataset, k), with
W = min(10_000, m // 10) scaled to our datasets:

- deletion: uniformly sample W edges A, delete them; compare |S|
  against building from scratch on G - A;
- insertion: starting from G - A, re-insert A; compare against
  from-scratch on G;
- mixed: sample a second set B of W edges, disjoint from A, start from
  G - B, apply a random interleaving of {delete A, insert B}; the run
  ends at (G - B) - A + B = G - A, so compare against from-scratch on
  G - A.

Each cell also reports the mean per-update latency in microseconds —
the quantity the paper plots in Fig. 7.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core import lp
from repro.core.prepare import Prepared
from repro.dynamic import index as idx_mod
from repro.dynamic import updates as upd
from repro.graphs import datasets
from repro.tables.table7 import build_state


def _minus(e: np.ndarray, drop: np.ndarray) -> np.ndarray:
    ds = {(int(u), int(v)) for u, v in drop}
    return np.array(
        [(u, v) for u, v in e if (int(u), int(v)) not in ds], dtype=np.int64
    ).reshape(-1, 2)


def _apply(state, ops) -> float:
    """Apply ops, return mean seconds per update."""
    t0 = time.monotonic()
    for op, u, v in ops:
        if op == "ins":
            upd.insert_edge(state, int(u), int(v))
        else:
            upd.delete_edge(state, int(u), int(v))
    return (time.monotonic() - t0) / max(1, len(ops))


def _indexed_state(e: np.ndarray, k: int):
    st = build_state(e, k)
    idx_mod.build_index(st)
    return st


def run(
    names: list[str] | None = None,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    workload: int | None = None,
    seed: int = 123,
) -> pd.DataFrame:
    names = names or list(datasets.DATASETS)
    rows = []
    for name in names:
        e = datasets.edges(name)
        w = workload if workload is not None else max(10, min(10_000, len(e) // 10))
        g = np.random.default_rng(seed)
        idx = g.choice(len(e), size=min(2 * w, len(e)), replace=False)
        A = e[np.sort(idx[: len(idx) // 2])]  # deletion set
        B = e[np.sort(idx[len(idx) // 2:])]  # insertion set (mixed)
        e_minus_a = _minus(e, A)
        e_minus_b = _minus(e, B)
        for k in ks:
            row: dict = {"Dataset": name, "k": k, "W": len(A)}

            st = _indexed_state(e, k)
            lat = _apply(st, [("del", u, v) for u, v in A])
            row["del_delta"] = len(st.S) - lp.solve(Prepared(e_minus_a, k)).size
            row["del_us"] = round(lat * 1e6, 1)

            st = _indexed_state(e_minus_a, k)
            lat = _apply(st, [("ins", u, v) for u, v in A])
            row["ins_delta"] = len(st.S) - lp.solve(Prepared(e, k)).size
            row["ins_us"] = round(lat * 1e6, 1)

            st = _indexed_state(e_minus_b, k)
            ops = [("del", int(u), int(v)) for u, v in A] + [
                ("ins", int(u), int(v)) for u, v in B
            ]
            perm = np.random.default_rng(seed + 1).permutation(len(ops))
            lat = _apply(st, [ops[i] for i in perm])
            row["mix_delta"] = len(st.S) - lp.solve(Prepared(e_minus_a, k)).size
            row["mix_us"] = round(lat * 1e6, 1)
            rows.append(row)
            print(pd.DataFrame([row]).to_string(index=False))
    return pd.DataFrame(rows)
