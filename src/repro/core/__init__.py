"""The paper's contribution: disjoint k-clique packing algorithms.

Modules:

- ``kernels``      — pure-Python/numpy enumeration & search kernels,
                     shared by Spark tasks and the driver.
- ``prepare``      — rank/orient/score preparation and driver clique listing,
                     shared by both backends.
- ``budgets``      — OOM/OOT simulation (paper's 504 GB / 24 h limits).
- ``clique_listing`` — the Spark fan-out, k-clique listing (GC) and
                     Table I's count.
- ``scores``       — node scores (Def. 5) and clique scores (Def. 6).
- ``clique_graph`` — condensed clique graph (Def. 2), built on the driver.
- ``mis``          — exact maximum independent set (for OPT).
- ``opt``          — OPT pipeline on the driver: clique graph + exact MIS.
- ``hg``           — Algorithm 1, the basic framework.
- ``gc``           — Algorithm 2, greedy by ascending clique score.
- ``lp``           — Algorithm 3, the lightweight implementation (L/LP).
- ``validate``     — solution validity / maximality oracles for tests.
"""
