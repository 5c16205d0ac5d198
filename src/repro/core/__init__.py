"""The paper's contribution: disjoint k-clique packing algorithms.

Modules:

- ``kernels``      — pure-Python/numpy enumeration & search kernels,
                     shared by Spark ``mapInPandas`` tasks and the driver.
- ``prepare``      — the driver's shared rank/orient/score preparation.
- ``budgets``      — OOM/OOT simulation (paper's 504 GB / 24 h limits).
- ``clique_listing`` — Spark k-clique listing/counting substrate.
- ``scores``       — node scores (Def. 5) and clique scores (Def. 6).
- ``clique_graph`` — condensed clique graph (Def. 2) and degrees (Def. 4).
- ``mis``          — exact and greedy maximum independent set (for OPT).
- ``opt``          — OPT pipeline: clique graph + exact MIS.
- ``hg``           — Algorithm 1, the basic framework.
- ``gc``           — Algorithm 2, greedy by ascending clique score.
- ``lp``           — Algorithm 3, the lightweight implementation (L/LP).
- ``validate``     — solution validity / maximality oracles for tests.
"""
