"""Table harnesses: one module per evaluation table of the paper.

Each module exposes ``run(...) -> pandas.DataFrame`` printing the same
row layout the paper reports, with OOM/OOT cells produced by the Budget
guards. Every harness runs on the driver without a SparkSession;
``jobs/run_all.py`` runs them at the EXPERIMENTS.md configuration and
writes their CSVs to ``results/``, from which EXPERIMENTS.md is rendered.
"""
