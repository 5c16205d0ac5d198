"""Node scores (Def. 5) and clique scores (Def. 6).

``s_n(u)`` = number of k-cliques containing ``u``; ``s_c(C)`` =
``sum_{u in C} s_n(u)``. The clique score approximates the clique's
degree in the clique graph (Theorem 2), which drives the selection
order in Algorithms 2 and 3. Node scores are counted once per (graph, k)
by :class:`repro.core.prepare.Prepared`, and GC and LP sum them into
``s_c`` on the driver; the fixed total clique order ``(s_c(C), member
tuple)`` is a plain Python tuple comparison. This module holds only
:func:`collect_scores`, which nothing calls.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame


# No caller; kept because perfbench.tracing.LAYERS looks this name up.
def collect_scores(scores_df: DataFrame) -> dict[int, int]:
    """``(node, score)`` DataFrame as a plain dict."""
    pdf = scores_df.toPandas()
    return dict(
        zip(pdf["node"].to_numpy(np.int64).tolist(), pdf["score"].to_numpy(np.int64).tolist())
    )
