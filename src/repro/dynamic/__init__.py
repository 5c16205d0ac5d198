"""Dynamic maintenance of the disjoint k-clique set (Section V).

- ``state``   — the mutable graph + solution + candidate-index state.
- ``index``   — candidate k-clique index (Algorithm 5), listed by the
                bitset kernel ``kernels.cliques_in_subset``; its
                ``owner_of`` states the candidate rule once, for the
                refresh and for insertion.
- ``swap``    — TrySwap (Algorithm 4) and ``replace``, the swap-out
                step TrySwap and a deletion inside S share.
- ``updates`` — per-edge insertion/deletion (Algorithms 6-7).

Everything here runs on the driver. The paper reports microseconds per
update, and launching a distributed job per edge is impossible at that
latency (see DESIGN.md §2); the index build runs there too, because on
the bitset kernel it finishes faster than a Spark job starts.
"""
