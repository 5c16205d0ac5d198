"""Dynamic maintenance of the disjoint k-clique set (Section V).

- ``state``   — the mutable graph + solution + candidate-index state.
- ``index``   — candidate k-clique index (Algorithm 5): the driver
                build and the incremental refresh share one candidate
                rule, listed by the bitset kernel
                ``kernels.cliques_in_subset``.
- ``swap``    — TrySwap (Algorithm 4).
- ``updates`` — per-edge insertion/deletion (Algorithms 6-7).

Everything here runs on the driver. The paper reports microseconds per
update, and launching a distributed job per edge is impossible at that
latency (see DESIGN.md §2); the index build runs there too, because on
the bitset kernel it finishes faster than a Spark job starts.
"""
