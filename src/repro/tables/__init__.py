"""Table harnesses: one module per evaluation table of the paper.

Each module exposes ``run(...) -> pandas.DataFrame`` printing the same
row layout the paper reports, with OOM/OOT cells produced by the Budget
guards; the harnesses whose GC or LP fan out on Spark (Tables II, IV,
V-VI) take the SparkSession first. ``jobs/`` wraps these for
spark-submit; the measured numbers are recorded against the paper's in
EXPERIMENTS.md.
"""
