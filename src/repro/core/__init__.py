"""The paper's contribution: disjoint k-clique packing algorithms.

Modules:

- ``kernels``      — enumeration & search kernels, C called through ``ctypes``.
- ``native``       — builds that C, ``_kernels.c``, on first import.
- ``prepare``      — rank/orient/score preparation (``Prepared``), the
                     input of every algorithm.
- ``budgets``      — OOM/OOT simulation (paper's 504 GB / 24 h limits).
- ``clique_listing`` — k-clique listing (GC, OPT) and Table I's count.
- ``scores``       — an unused DataFrame-to-dict helper that
                     ``perfbench`` still looks up.
- ``clique_graph`` — condensed clique graph (Def. 2): one neighbour mask
                     per clique, built on the driver.
- ``mis``          — exact maximum independent set over neighbour masks
                     (for OPT).
- ``opt``          — OPT pipeline on the driver: clique graph + exact MIS.
- ``hg``           — Algorithm 1, the basic framework.
- ``gc``           — Algorithm 2, greedy by ascending clique score.
- ``lp``           — Algorithm 3, the lightweight implementation (L/LP).
- ``validate``     — solution validity / maximality oracles for tests.

Each algorithm module has one ``solve(prep, ...)`` that takes a
``Prepared`` and runs on the driver; ``budget`` caps it. Table I's
count is ``clique_listing.count_kcliques(prep, budget)``. The
DataFrame wrappers ``hg``, ``lp``, ``gc`` and ``opt_or_status`` collect
an edge DataFrame with ``datasets.df_to_edges`` and call ``solve``.
"""
