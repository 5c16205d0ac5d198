"""Render EXPERIMENTS.md from results/*.csv, with the paper's numbers
inlined next to the measured ones.

Usage: python jobs/render_experiments.py > EXPERIMENTS.md
"""
import os

import pandas as pd

R = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")

# ---- paper-reported numbers (transcribed from the paper) ----------------
PAPER_T1 = {  # name: (n, m, c3, c4, c5, c6)
    "FTB": ("115", "613", "810", "732", "473", "237"),
    "HST": ("1.86K", "12.5K", "16.8K", "10K", "2.77K", "285"),
    "FB": ("4K", "88K", "1.61M", "30M", "518M", "7.83B"),
    "FBP": ("28K", "206K", "393K", "837K", "2.19M", "6.1M"),
    "FBW": ("63.7K", "817K", "3.5M", "13.3M", "46.5M", "145M"),
    "DS": ("260K", "2.15M", "5.17M", "28.5M", "131M", "475M"),
    "SK": ("1.7M", "11M", "28.8M", "149M", "1.18B", "9.76B"),
    "FL": ("1.7M", "15.6M", "548M", "26.7B", "1.07T", "33.6T"),
    "LJ": ("5.2M", "48.7M", "311M", "11.4B", "589B", "28.2T"),
    "OR": ("3M", "117M", "628K", "3.22B", "15.8B", "75.2B"),
}
# Table II paper cells per dataset: {k: (OPT, HG, GCdelta, LPdelta)}
PAPER_T2 = {
    "FTB": {3: ("OOT", 32, 4, 4), 4: (25, 24, -1, -1), 5: (16, 16, 0, 0), 6: (11, 11, 0, 0)},
    "HST": {3: ("OOT", 201, 10, 10), 4: ("OOT", 52, 6, 6), 5: (15, 13, 1, 1), 6: (5, 4, 1, 1)},
    "FB": {3: ("OOT", 1195, 40, 40), 4: ("OOM", 784, 48, 48), 5: ("OOM", 561, 37, 37), 6: ("OOM", 413, "OOM", 31)},
    "FBP": {3: ("OOT", 5732, 357, 348), 4: ("OOT", 2888, 254, 249), 5: ("OOM", 1602, 163, 164), 6: ("OOM", 967, 88, 106)},
    "OR": {3: ("OOM", 861315, 54590, 54556), 4: ("OOM", 513758, "OOM", 49093), 5: ("OOM", 323078, "OOM", 38041), 6: ("OOM", 212440, "OOM", 28186)},
}
PAPER_T4 = {  # dataset: {k: (LP, OPT, ER)}
    "Swallow": {3: (4, 4, "0%"), 4: (2, 2, "0%"), 5: (0, 0, "0%"), 6: (0, 0, "0%")},
    "Tortoise": {3: (6, 6, "0%"), 4: (2, 2, "0%"), 5: (1, 1, "0%"), 6: (1, 1, "0%")},
    "Lizard": {3: (19, "OOT", "-"), 4: (13, 14, "7.14%"), 5: (9, 9, "0%"), 6: (4, 4, "0%")},
    "Football": {3: (36, "OOT", "-"), 4: (23, 25, "8%"), 5: (16, 16, "0%"), 6: (11, 11, "0%")},
    "Voles": {3: (48, 49, "2.04%"), 4: (30, 30, "0%"), 5: (18, 18, "0%"), 6: (13, 13, "0%")},
    "Hamsterster": {3: (211, "OOT", "-"), 4: (58, "OOT", "-"), 5: (14, 15, "6.67%"), 6: (11, 11, "0%")},
}
PAPER_T5 = {  # degree: {k: (HG_s, GC_s, LP_s)}
    8: {3: (1.2, 3.28, 3.98), 4: (1.22, 2.29, 3.24), 5: (1.19, 1.9, 2.77), 6: (1.14, 1.49, 1.96)},
    16: {3: (2.2, 9.36, 6.98), 4: (2.41, 9.96, 6.14), 5: (2.3, 6.26, 5.34), 6: (2.4, 4.1, 4.3)},
    32: {3: (4.15, 35.5, 14.3), 4: (4.29, 116, 15.4), 5: (4.45, 146, 15.3), 6: (4.64, 123, 13.6)},
    64: {3: (9.85, 194, 32.2), 4: (8.78, "1.66K", 47.3), 5: (8.86, "4.83K", 82.4), 6: (9.14, "OOM", 133)},
}
PAPER_T6 = {  # degree: {k: (HG, GCdelta, LPdelta)}
    8: {3: (275636, 19394, 19164), 4: (160284, 14764, 14693), 5: (57106, 717, 719), 6: (0, 0, 0)},
    16: {3: (303408, 7277, 7291), 4: (206693, 17764, 17695), 5: (138749, 24804, 24783), 6: (88509, 12026, 12050)},
    32: {3: (317417, 3509, 3444), 4: (228178, 7460, 7446), 5: (171736, 12707, 12710), 6: (130654, 18749, 18735)},
    64: {3: (324964, 1629, 1683), 4: (238631, 3278, 3273), 5: (185736, 5421, 5405), 6: (149210, "OOM", 8131)},
}
PAPER_T7 = {  # dataset: (times ms k3..k6, sizes k3..k6)
    "FTB": (("7.1", "11.1", "11.1", "11.3"), ("86", "149", "419", "226")),
    "HST": (("9.91", "17.7", "11.6", "15.5"), ("1.01K", "327", "274", "20")),
    "FB": (("10.5", "9.57", "19.6", "43.4"), ("1.45K", "3.03K", "3.87K", "16.8K")),
    "FBP": (("37.3", "41.7", "44.9", "61.7"), ("9.61K", "10.9K", "16.3K", "25.7K")),
}
PAPER_T8 = {  # dataset: {k: (del, ins, mix)}
    "FTB": {3: (0, 0, 0), 4: (0, 0, 0), 5: (0, 0, 0), 6: (-1, 0, 0)},
    "HST": {3: (0, 0, -1), 4: (3, 2, -1), 5: (-1, 1, 0), 6: (0, 0, 0)},
    "FBP": {3: (-18, -7, -58), 4: (-24, -12, -32), 5: (-2, -14, -17), 6: (6, -1, -16)},
}


def _md(df: pd.DataFrame) -> str:
    """Hand-rolled markdown table (tabulate is not installed offline)."""
    cols = [str(c) for c in df.columns]
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for _, r in df.iterrows():
        lines.append("| " + " | ".join(str(r[c]) for c in df.columns) + " |")
    return "\n".join(lines)


def main() -> None:
    out = []
    out.append(open(os.path.join(R, "..", "EXPERIMENTS_HEADER.md")).read())

    # ---- Table I -------------------------------------------------------
    t1 = pd.read_csv(os.path.join(R, "table1.csv"))
    rows = []
    for _, r in t1.iterrows():
        p = PAPER_T1[r["Name"]]
        rows.append({
            "Name": r["Name"], "scale": r["scale"],
            "n (paper)": p[0], "n (ours)": r["n"],
            "m (paper)": p[1], "m (ours)": r["m"],
            "k=3 (paper/ours)": f"{p[2]} / {r['k=3']}",
            "k=4": f"{p[3]} / {r['k=4']}",
            "k=5": f"{p[4]} / {r['k=5']}",
            "k=6": f"{p[5]} / {r['k=6']}",
        })
    out.append("\n## Table I — dataset statistics (number of k-cliques)\n")
    out.append(_md(pd.DataFrame(rows)))
    out.append(
        "\nShape check: counts in the hundreds-of-thousands at our 1/1-1/80 "
        "scale; for the dense social stand-ins (FB, FBW, OR) the count grows "
        "with k, as in the paper; for FTB/HST it shrinks, as in the paper.\n"
    )

    # ---- Table II ------------------------------------------------------
    t2 = pd.concat([
        pd.read_csv(os.path.join(R, "table2.csv")),
        pd.read_csv(os.path.join(R, "table2_or.csv")),
    ])
    rows = []
    for _, r in t2.iterrows():
        pap = PAPER_T2.get(r["Name"], {}).get(int(r["k"]))
        if pap is None:
            continue
        rows.append({
            "Name": r["Name"], "k": int(r["k"]),
            "OPT p/o": f"{pap[0]} / {r['OPT'] if pd.notna(r.get('OPT')) else '-'}",
            "HG p/o": f"{pap[1]} / {r['HG']}",
            "GCΔ p/o": f"{pap[2]} / {r['GC_delta'] if pd.notna(r['GC_delta']) else r['GC']}",
            "LPΔ p/o": f"{pap[3]} / {r['LP_delta'] if pd.notna(r['LP_delta']) else r['LP']}",
            "t HG/GC/LP (s)": f"{r['t_HG(s)']} / {r['t_GC(s)']} / {r['t_LP(s)']}",
        })
    out.append("\n## Table II — size of S (Δ relative to HG), plus Fig. 6 runtimes\n")
    out.append(_md(pd.DataFrame(rows)))
    out.append(
        "\nShape check (paper → ours): GC ≡ LP ≥ HG everywhere (our fixed "
        "tie-break makes GC = LP exactly, Theorem 4); ΔS positive on every "
        "non-trivial dataset and largest where clique structure is rich "
        "(paper's headline: +13.3% on OR k=6; ours: +46 on FB k=3, +393 on "
        "OR k=3); OPT OOT/OOM beyond tiny inputs; HG fastest, LP ~2x faster "
        "than GC. GC's OOM cells appear at full paper scale; our Table II "
        "graphs fit under the 3M-clique budget (the OOM path fires in "
        "Table V at degree 64 and is exercised in tests).\n"
    )

    # ---- Table III -----------------------------------------------------
    t3 = pd.concat([
        pd.read_csv(os.path.join(R, "table3.csv")),
        pd.read_csv(os.path.join(R, "table3_or.csv")),
    ])
    out.append("\n## Table III — space proxies (MB)\n")
    out.append(_md(t3))
    out.append(
        "\nPaper shape: HG flat and small, LP a small constant factor above "
        "HG, GC grows with the clique count (exponentially in k on the real "
        "graphs; here with our scaled counts). Same ordering holds: "
        "HG < LP << GC. Our numbers are analytic proxies (DESIGN.md §3) — "
        "every algorithm of a row runs in one Python process, whose peak RSS "
        "is a high-water mark over the whole run, so RSS is not attributable "
        "per algorithm. GC's column counts what GC holds per clique: k int32 "
        "members in its clique array, one int64 score and one int64 sort-order "
        "entry.\n"
    )

    # ---- Table IV ------------------------------------------------------
    t4 = pd.read_csv(os.path.join(R, "table4.csv"))
    rows = []
    for _, r in t4.iterrows():
        pap = PAPER_T4.get(r["Dataset"], {}).get(int(r["k"]))
        if pap is None:
            continue
        rows.append({
            "Dataset": r["Dataset"], "k": int(r["k"]),
            "LP p/o": f"{pap[0]} / {r['LP']}",
            "OPT p/o": f"{pap[1]} / {r['OPT']}",
            "ER p/o": f"{pap[2]} / {r['ER']}",
        })
    out.append("\n## Table IV — LP vs exact OPT on small graphs\n")
    out.append(_md(pd.DataFrame(rows)))
    bust = t4["OPT"].isin(["OOT", "OOM"])
    failed = [f"{r['Dataset']} k={int(r['k'])} ({r['OPT']})" for _, r in t4[bust].iterrows()]
    paper_oot = [f"{d} k={k}" for d, cells in PAPER_T4.items()
                 for k, c in cells.items() if c[1] == "OOT"]
    solved = t4[~bust]
    n_equal = int((solved["OPT"].astype(int) == solved["LP"]).sum())
    worst_er = max(solved["ER"], key=lambda x: float(x.rstrip("%")))
    out.append(
        f"\nShape check: OPT exceeds its budget on {', '.join(failed)}; the "
        f"paper reports OOT on {', '.join(paper_oot)}. Where OPT finishes, LP "
        f"equals it on {n_equal} of {len(solved)} cells and the largest error "
        f"ratio is {worst_er}.\n"
    )

    # ---- Tables V & VI -------------------------------------------------
    t56 = pd.read_csv(os.path.join(R, "table5_6.csv"))
    rows5, rows6 = [], []
    for _, r in t56.iterrows():
        deg, k = int(r["Degree"]), int(r["k"])
        p5 = PAPER_T5[deg][k]
        p6 = PAPER_T6[deg][k]
        rows5.append({
            "Degree": deg, "k": k,
            "HG s p/o": f"{p5[0]} / {r['t_HG(s)']}",
            "GC s p/o": f"{p5[1]} / {r['t_GC(s)']}" + (" (OOM)" if r["GC"] == "OOM" else ""),
            "LP s p/o": f"{p5[2]} / {r['t_LP(s)']}",
        })
        rows6.append({
            "Degree": deg, "k": k,
            "HG p/o": f"{p6[0]} / {r['HG']}",
            "GCΔ p/o": f"{p6[1]} / {int(r['GC_delta']) if pd.notna(r['GC_delta']) else r['GC']}",
            "LPΔ p/o": f"{p6[2]} / {r['LP_delta'] if pd.notna(r['LP_delta']) else r['LP']}",
        })
    out.append("\n## Table V — runtime on Watts-Strogatz graphs (paper n=1M; ours n=4K, same degrees)\n")
    out.append(_md(pd.DataFrame(rows5)))
    out.append("\n## Table VI — size of S on Watts-Strogatz graphs\n")
    out.append(_md(pd.DataFrame(rows6)))
    out.append(
        "\nShape check: every method slows and S grows as density rises; HG "
        "runtime nearly flat in k; GC blows up at degree 64 (paper: OOM at "
        "k=6, 4.83Ks at k=5 — ours: OOM cells at the 3M-clique budget); LP "
        "stays one to two orders below GC at high density; degree 8 / k=6 "
        "has S = 0 in both (no 6-cliques survive rewiring).\n"
    )

    # ---- Table VII -----------------------------------------------------
    t7 = pd.read_csv(os.path.join(R, "table7.csv"))
    rows = []
    for _, r in t7.iterrows():
        pap = PAPER_T7.get(r["Dataset"])
        if pap is None:
            continue
        times = " / ".join(str(r[f"time_k{k}(ms)"]) for k in (3, 4, 5, 6))
        sizes = " / ".join(str(r[f"size_k{k}"]) for k in (3, 4, 5, 6))
        rows.append({
            "Dataset": r["Dataset"],
            "time ms k3..k6 (paper)": " / ".join(pap[0]),
            "time ms k3..k6 (ours)": times,
            "index size k3..k6 (paper)": " / ".join(pap[1]),
            "index size k3..k6 (ours)": sizes,
        })
    out.append("\n## Table VII — indexing time and index size\n")
    out.append(_md(pd.DataFrame(rows)))
    out.append(
        "\nOur times are driver build times, one run each, after S is "
        "computed: Algorithm 5 as one C call on one thread (a CSR snapshot "
        "of the adjacency sets, then every clique's B = C ∪ N_F(C) searched "
        "as bitmasks), plus turning the rows into Python sets. Shape check: "
        "the index is orders of magnitude smaller than the clique count (the "
        "candidate constraint is strict), as in the paper. Build times stay "
        "under 60 ms; a repeated build can take about twice as long when "
        "Python's garbage collector runs while the candidate sets are built. "
        "On FBP the snapshot of 209K neighbour ids is about 20 ms of each "
        "build.\n"
    )

    # ---- Table VIII ----------------------------------------------------
    t8 = pd.read_csv(os.path.join(R, "table8.csv"))
    rows = []
    for _, r in t8.iterrows():
        pap = PAPER_T8.get(r["Dataset"], {}).get(int(r["k"]))
        if pap is None:
            continue
        rows.append({
            "Dataset": r["Dataset"], "k": int(r["k"]), "W (ours)": int(r["W"]),
            "Δ del p/o": f"{pap[0]} / {int(r['del_delta'])}",
            "Δ ins p/o": f"{pap[1]} / {int(r['ins_delta'])}",
            "Δ mix p/o": f"{pap[2]} / {int(r['mix_delta'])}",
            "µs/update del/ins/mix (ours)": f"{r['del_us']} / {r['ins_us']} / {r['mix_us']}",
        })
    out.append("\n## Table VIII — quality of S after update workloads (Δ vs from-scratch), plus Fig. 7 latencies\n\n"
        "Workloads scale the paper's 10K updates to W = min(10K, m/10) per\n"
        "dataset (FBP runs the paper's W = 10K, k=3..6; every cell is measured).\n")
    out.append(_md(pd.DataFrame(rows)))
    out.append(
        "\nShape check: Δ stays within a handful of cliques of the "
        "from-scratch rebuild on FTB and HST, in both directions (the paper "
        "sees the same, including occasional positive Δ from the swap's "
        "local optimum), and within tens of cliques on FBP at W = 10K, as "
        "the paper's FBP row is; per-update latency is tens to hundreds of "
        "microseconds, orders of magnitude below a rebuild. Paper reports ns-µs on 64-thread C++; "
        "our driver-side Python is slower per update but the "
        "update-vs-rebuild gap (the table's message) is preserved.\n"
    )

    print("\n".join(out))


if __name__ == "__main__":
    main()
