"""Node scores (Def. 5) and clique scores (Def. 6).

``s_n(u)`` = number of k-cliques containing ``u``; ``s_c(C)`` =
``sum_{u in C} s_n(u)``. The clique score approximates the clique's
degree in the clique graph (Theorem 2), which drives the selection
order in Algorithms 2 and 3. Node scores are counted once per (graph, k)
by :class:`repro.core.prepare.Prepared`; clique listing attaches
``s_c`` to every clique it emits. This module holds the string columns
that encode the fixed total clique order ``(s_c(C), member tuple)`` for
the Spark selection and clique-graph jobs.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import clique_listing


def clique_id_col(k: int):
    """Canonical clique id: zero-padded members joined — lexicographic
    string order equals (member tuple) order, so string min/sort give
    the fixed total clique order."""
    cols = [F.format_string("%010d", F.col(c)) for c in clique_listing.member_cols(k)]
    return F.concat_ws(",", *cols)


def key_col():
    """Total-order key ``(score, member tuple)`` as a single string:
    zero-padded score prefix + canonical cid. String comparison equals
    tuple comparison — usable in ``min()`` aggregations."""
    return F.concat_ws("|", F.format_string("%015d", F.col("score")), F.col("cid"))


# No caller; kept because perfbench.tracing.LAYERS looks this name up.
def collect_scores(scores_df: DataFrame) -> dict[int, int]:
    """``(node, score)`` DataFrame as a plain dict."""
    pdf = scores_df.toPandas()
    return dict(
        zip(pdf["node"].to_numpy(np.int64).tolist(), pdf["score"].to_numpy(np.int64).tolist())
    )
