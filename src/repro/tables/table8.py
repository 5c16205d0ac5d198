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

"From scratch" is LP's |S|, which is the initial |S| of the state that
``table7.indexed_state`` builds on the same graph: the state on G - A
gives the scratch size for the deletion and mixed runs, and the state
on G the one for insertion. Each cell also reports the mean per-update
latency in microseconds — the quantity the paper plots in Fig. 7.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.dynamic import updates as upd
from repro.graphs import datasets
from repro.tables.table7 import indexed_state

SEED = 123  # samples A and B; SEED + 1 interleaves the mixed run


def _apply(state, ops) -> tuple[float, int]:
    """Apply ops; return the mean microseconds per update and the final |S|."""
    t0 = time.monotonic()
    for op, u, v in ops:
        (upd.insert_edge if op == "ins" else upd.delete_edge)(state, u, v)
    return round((time.monotonic() - t0) / max(1, len(ops)) * 1e6, 1), len(state.S)


def run(
    names: list[str] | None = None,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    workload: int | None = None,
) -> pd.DataFrame:
    names = names or list(datasets.DATASETS)
    rows = []
    for name in names:
        e = datasets.edges(name)
        w = workload if workload is not None else max(10, min(10_000, len(e) // 10))
        idx = np.random.default_rng(SEED).choice(len(e), size=min(2 * w, len(e)), replace=False)
        rows_a, rows_b = idx[: len(idx) // 2], idx[len(idx) // 2:]
        A = e[np.sort(rows_a)].tolist()  # deletion set
        B = e[np.sort(rows_b)].tolist()  # insertion set (mixed)
        e_minus_a = np.delete(e, rows_a, axis=0)
        e_minus_b = np.delete(e, rows_b, axis=0)
        dels, inss = [("del", u, v) for u, v in A], [("ins", u, v) for u, v in A]
        mixed = dels + [("ins", u, v) for u, v in B]
        mixed = [mixed[i] for i in np.random.default_rng(SEED + 1).permutation(len(mixed))]
        for k in ks:
            st, _ = indexed_state(e, k)
            scratch_g = len(st.S)
            del_us, del_size = _apply(st, dels)
            st, _ = indexed_state(e_minus_a, k)
            scratch_a = len(st.S)
            ins_us, ins_size = _apply(st, inss)
            mix_us, mix_size = _apply(indexed_state(e_minus_b, k)[0], mixed)
            row = {"Dataset": name, "k": k, "W": len(A),
                   "del_delta": del_size - scratch_a, "del_us": del_us,
                   "ins_delta": ins_size - scratch_g, "ins_us": ins_us,
                   "mix_delta": mix_size - scratch_a, "mix_us": mix_us}
            rows.append(row)
            print(pd.DataFrame([row]).to_string(index=False))
    return pd.DataFrame(rows)
