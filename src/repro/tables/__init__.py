"""Table harnesses: one module per evaluation table of the paper.

Each module exposes ``run(...) -> pandas.DataFrame`` printing the same
row layout the paper reports, with OOM/OOT cells produced by the Budget
guards. Every harness runs on the driver without a SparkSession;
``jobs/run_all.py`` runs them at the EXPERIMENTS.md configuration and
writes their CSVs to ``results/``, from which EXPERIMENTS.md is rendered.

Every cell is computed once: Table III (``table3.space_rows``) and
Table IV (``table4.error_rows``) are views of ``table2.run``'s frame,
Table VI is columns of Table V's, and Tables VII and VIII build their
dynamic states with ``table7.indexed_state``.
"""
