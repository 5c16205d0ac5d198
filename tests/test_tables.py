"""Table-harness integration tests: each harness runs end-to-end at a
tiny configuration and emits well-formed rows (the real runs behind
EXPERIMENTS.md are ``jobs/run_all.py``'s), and the runner rejects an
unknown phase."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core import lp, opt
from repro.core.prepare import Prepared
from repro.dynamic import index as idx_mod
from repro.dynamic import updates as upd
from repro.graphs import datasets
from repro.tables import common, synthetic, table1, table2, table3, table4, table7, table8

ROOT = Path(__file__).resolve().parents[1]


def test_table1_rows():
    df = table1.run(names=["FTB"], ks=(3, 4))
    assert list(df["Name"]) == ["FTB"]
    row = df.iloc[0]
    assert row["n"] == 115 and int(row["k=3"]) > 0
    assert int(row["k=3"]) > int(row["k=4"])  # FTB: triangles dominate


def test_table1_budget_produces_oot():
    df = table1.run(names=["FTB"], ks=(3,), max_seconds=-1.0)
    assert df.iloc[0]["k=3"] == "OOT"


def test_table2_rows_and_deltas():
    df = table2.run(names=["FTB"], ks=(3,), algos=("HG", "GC", "LP"))
    row = df.iloc[0]
    assert int(row["HG"]) > 0
    assert int(row["GC"]) == int(row["HG"]) + int(row["GC_delta"])
    assert int(row["LP"]) == int(row["HG"]) + int(row["LP_delta"])
    # Theorem 4 with our fixed tie-break: GC == LP exactly.
    assert int(row["GC"]) == int(row["LP"])


def test_table2_oom_cell():
    df = table2.run(names=["FTB"], ks=(3,), algos=("HG", "GC"), max_cliques=2)
    assert df.iloc[0]["GC"] == "OOM"


def test_table3_space_proxies():
    t2 = table2.run(names=["FTB"], ks=(3,), algos=("HG", "GC", "LP"))
    t3 = table3.space_rows(t2)
    row = t3.iloc[0]
    assert row["GC_MB"] > row["HG_MB"], "GC must pay for materialized cliques"
    assert row["LP_MB"] >= row["HG_MB"]


def test_table4_error_ratio():
    df = table4.run(names=["Swallow"], ks=(3, 4))
    assert (df["LP"] >= 0).all()
    ok = df[df["OPT"].apply(lambda x: str(x).isdigit())]
    for _, r in ok.iterrows():
        assert int(r["OPT"]) >= int(r["LP"])  # exact is an upper bound


def test_table4_cells_equal_direct_solves():
    """Table IV's LP and OPT cells, taken from Table II's runs, are the
    sizes ``lp.solve`` and ``opt.solve`` give on the same graph."""
    df = table4.run(names=["Swallow"], ks=(3, 4))
    assert list(df.columns) == ["Dataset", "n", "m", "k", "LP", "OPT", "t_OPT(s)", "ER"]
    e = datasets.edges("Swallow")
    for r in df.itertuples(index=False):
        assert r.LP == lp.solve(Prepared(e, r.k)).size
        assert int(r.OPT) == opt.solve(Prepared(e, r.k), common.fresh_budget()).size


def test_table4_error_rows_formats():
    t2 = pd.DataFrame({"Name": ["X"] * 3, "k": [3, 4, 5], "n": [10] * 3, "m": [20] * 3,
                       "LP": ["4", "0", "7"], "OPT": ["5", "0", "OOT"],
                       "t_OPT(s)": [0.1, 0.0, 30.0]})
    t4 = table4.error_rows(t2)
    assert list(t4["Dataset"]) == ["X"] * 3
    assert list(t4["ER"]) == ["20.00%", "0%", "-"]
    assert t4["LP"].dtype.kind == "i"


def test_synthetic_tables():
    df = synthetic.run(n=120, degrees=(8,), ks=(3,))
    assert len(df) == 1
    assert list(df.columns) == synthetic.COLUMNS
    assert {"t_HG(s)", "t_GC(s)", "t_LP(s)", "GC_delta", "LP_delta"} <= set(df.columns)


def test_table7_index():
    df = table7.run(names=["FTB"], ks=(3,))
    row = df.iloc[0]
    assert row["size_k3"] >= 0 and row["time_k3(ms)"] > 0


def test_table8_updates():
    df = table8.run(names=["FTB"], ks=(3,), workload=30)
    row = df.iloc[0]
    assert row["W"] == 30
    for col in ("del_delta", "ins_delta", "mix_delta"):
        assert abs(int(row[col])) <= 5, f"{col} drifted far from scratch"
    for col in ("del_us", "ins_us", "mix_us"):
        assert row[col] > 0


def test_table8_deltas_equal_final_size_minus_lp():
    """Each delta is the run's final |S| minus LP's |S| on the graph the
    run ends on; here the runs are replayed and the LP computed on an edge
    set built by a set difference."""
    df = table8.run(names=["FTB"], ks=(3, 4))
    assert list(df.columns) == ["Dataset", "k", "W", "del_delta", "del_us",
                                "ins_delta", "ins_us", "mix_delta", "mix_us"]
    e = datasets.edges("FTB")
    w = int(df.iloc[0]["W"])
    idx = np.random.default_rng(table8.SEED).choice(len(e), size=2 * w, replace=False)
    A, B = e[np.sort(idx[:w])].tolist(), e[np.sort(idx[w:])].tolist()

    def minus(drop):
        gone = set(map(tuple, drop))
        return np.array([r for r in e.tolist() if tuple(r) not in gone], dtype=np.int64)

    def final_size(g, k, ops):
        st = table7.build_state(g, k)
        idx_mod.build_index(st)
        for op, u, v in ops:
            (upd.insert_edge if op == "ins" else upd.delete_edge)(st, u, v)
        return len(st.S)

    dels = [("del", u, v) for u, v in A]
    mixed = dels + [("ins", u, v) for u, v in B]
    mixed = [mixed[i] for i in np.random.default_rng(table8.SEED + 1).permutation(len(mixed))]
    for r in df.itertuples(index=False):
        k = r.k
        lp_g, lp_a = lp.solve(Prepared(e, k)).size, lp.solve(Prepared(minus(A), k)).size
        assert r.del_delta == final_size(e, k, dels) - lp_a
        assert r.ins_delta == final_size(minus(A), k, [("ins", u, v) for u, v in A]) - lp_g
        assert r.mix_delta == final_size(minus(B), k, mixed) - lp_a


def test_run_cell_statuses():
    from repro.core.budgets import SimulatedOOM, SimulatedOOT

    st, out, _ = common.run_cell(lambda: 42)
    assert (st, out) == ("OK", 42)
    st, out, _ = common.run_cell(lambda: (_ for _ in ()).throw(SimulatedOOM("x")))
    assert (st, out) == ("OOM", None)
    st, out, _ = common.run_cell(lambda: (_ for _ in ()).throw(SimulatedOOT("x")))
    assert (st, out) == ("OOT", None)
    assert common.cell("OK", 7) == "7" and common.cell("OOM", None) == "OOM"


def test_run_all_rejects_unknown_phase():
    """An unknown phase exits non-zero, names the valid ones and runs none."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run([sys.executable, str(ROOT / "jobs" / "run_all.py"), "t9"],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode != 0
    assert "t9" in p.stderr and "t1 t2 t4 t5 t7 t8" in p.stderr
    assert p.stdout == ""


def test_experiments_md_is_current():
    """EXPERIMENTS.md is exactly what ``jobs/render_experiments.py``
    renders from the committed CSVs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run([sys.executable, str(ROOT / "jobs" / "render_experiments.py")],
                       capture_output=True, text=True, env=env, timeout=120, check=True)
    assert p.stdout == (ROOT / "EXPERIMENTS.md").read_text()
