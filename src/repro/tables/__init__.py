"""Table harnesses: one module per evaluation table of the paper.

Each module exposes ``run(...) -> pandas.DataFrame`` printing the same
row layout the paper reports, with OOM/OOT cells produced by the Budget
guards. Every harness runs on the driver without a SparkSession;
``jobs/`` wraps each as a plain ``python`` script, and the measured
numbers are recorded against the paper's in EXPERIMENTS.md.
"""
