"""The paper's contribution: disjoint k-clique packing algorithms.

Modules:

- ``kernels``      — pure-Python/numpy enumeration & search kernels,
                     shared by Spark tasks and the driver.
- ``prepare``      — rank/orient/score preparation (``Prepared``), the
                     input of every algorithm on both backends.
- ``budgets``      — OOM/OOT simulation (paper's 504 GB / 24 h limits).
- ``clique_listing`` — the per-source fan-out (driver loop or one Spark
                     job), k-clique listing (GC, OPT) and Table I's count.
- ``scores``       — an unused DataFrame-to-dict helper that
                     ``perfbench`` still looks up.
- ``clique_graph`` — condensed clique graph (Def. 2), built on the driver.
- ``mis``          — exact maximum independent set (for OPT).
- ``opt``          — OPT pipeline on the driver: clique graph + exact MIS.
- ``hg``           — Algorithm 1, the basic framework.
- ``gc``           — Algorithm 2, greedy by ascending clique score.
- ``lp``           — Algorithm 3, the lightweight implementation (L/LP).
- ``validate``     — solution validity / maximality oracles for tests.

Each algorithm module has one ``solve(prep, ...)`` that takes a
``Prepared``; ``budget`` caps it on both backends, and ``spark`` (GC
and L/LP only) moves its per-source fan-out onto Spark. Table I's
count is ``clique_listing.count_kcliques(prep, budget)``.
"""
