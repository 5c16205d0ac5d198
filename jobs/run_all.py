"""Run every table harness at the EXPERIMENTS.md configuration and
write one CSV per table into results/.

Usage: python jobs/run_all.py [phase ...]   (default: all phases)
Phases: t1 t2 t4 t5 t7 t8 (t2 also writes Table III, t5 Table VI)
"""
import os
import sys
import time

from repro.tables import synthetic, table1, table2, table3, table4, table7, table8

RESULTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")
PHASES = ("t1", "t2", "t4", "t5", "t7", "t8")


def main() -> None:
    phases = sys.argv[1:] or list(PHASES)
    unknown = [p for p in phases if p not in PHASES]
    if unknown:
        sys.exit(f"unknown phase {' '.join(unknown)}; valid phases: {' '.join(PHASES)}")
    os.makedirs(RESULTS, exist_ok=True)
    t0 = time.time()
    if "t1" in phases:
        df = table1.run(max_seconds=120.0)
        df.to_csv(f"{RESULTS}/table1.csv", index=False)
        print(f"[t1 done {time.time()-t0:.0f}s]", flush=True)
    if "t2" in phases:
        df = table2.run(names=["FTB", "HST", "FB", "FBP"], opt_max_seconds=30.0, max_seconds=180.0)
        df.to_csv(f"{RESULTS}/table2.csv", index=False)
        table3.space_rows(df).to_csv(f"{RESULTS}/table3.csv", index=False)
        big = table2.run(names=["OR"], algos=("HG", "GC", "LP"), max_seconds=240.0)
        big.to_csv(f"{RESULTS}/table2_or.csv", index=False)
        table3.space_rows(big).to_csv(f"{RESULTS}/table3_or.csv", index=False)
        print(f"[t2 done {time.time()-t0:.0f}s]", flush=True)
    if "t4" in phases:
        df = table4.run(opt_max_seconds=30.0)
        df.to_csv(f"{RESULTS}/table4.csv", index=False)
        print(f"[t4 done {time.time()-t0:.0f}s]", flush=True)
    if "t5" in phases:
        df = synthetic.run(max_seconds=180.0)
        df.to_csv(f"{RESULTS}/table5_6.csv", index=False)
        print(f"[t5 done {time.time()-t0:.0f}s]", flush=True)
    if "t7" in phases:
        df = table7.run(names=["FTB", "HST", "FB", "FBP"])
        df.to_csv(f"{RESULTS}/table7.csv", index=False)
        print(f"[t7 done {time.time()-t0:.0f}s]", flush=True)
    if "t8" in phases:
        df = table8.run(names=["FTB", "HST", "FBP"])
        df.to_csv(f"{RESULTS}/table8.csv", index=False)
        print(f"[t8 done {time.time()-t0:.0f}s]", flush=True)
    print(f"ALL DONE in {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
