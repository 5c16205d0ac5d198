"""Table-harness integration tests: each harness runs end-to-end at a
tiny configuration and emits well-formed rows (the real runs behind
EXPERIMENTS.md use the jobs/ entrypoints)."""
import pandas as pd
import pytest

from repro.tables import common, synthetic, table1, table2, table3, table4, table7, table8


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


def test_synthetic_tables():
    df = synthetic.run(n=120, degrees=(8,), ks=(3,))
    assert len(df) == 1
    t5, t6 = synthetic.table5(df), synthetic.table6(df)
    assert "t_GC(s)" in t5.columns and "GC_delta" in t6.columns


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


def test_run_cell_statuses():
    from repro.core.budgets import SimulatedOOM, SimulatedOOT

    st, out, _ = common.run_cell(lambda: 42)
    assert (st, out) == ("OK", 42)
    st, out, _ = common.run_cell(lambda: (_ for _ in ()).throw(SimulatedOOM("x")))
    assert (st, out) == ("OOM", None)
    st, out, _ = common.run_cell(lambda: (_ for _ in ()).throw(SimulatedOOT("x")))
    assert (st, out) == ("OOT", None)
    assert common.cell("OK", 7) == "7" and common.cell("OOM", None) == "OOM"
