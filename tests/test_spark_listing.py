"""Spark listing/counting substrate vs brute force and the DuckDB
oracle — an independent engine checks the distributed pipeline."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core import clique_listing, validate
from repro.core.prepare import Prepared
from repro.graphs import adjacency as adj_mod
from repro.graphs import datasets
from repro.oracle import assert_equivalent

from tests.helpers import as_dict, list_kcliques_joins, paper_fig2_edges, random_graph


@pytest.fixture(scope="module")
def ftb(spark):
    e = datasets.edges("FTB")
    return e, datasets.edges_to_df(spark, e)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_list_kcliques_matches_brute(spark, ftb, k):
    e, _ = ftb
    got = clique_listing.list_kcliques(Prepared(e, k), spark=spark)
    assert len(got) == len(set(got))
    assert set(got) == validate.brute_force_all_kcliques(e, k)


@pytest.mark.parametrize("k", [3, 4])
def test_join_based_listing_matches_brute(spark, ftb, k):
    e, df = ftb
    got = list_kcliques_joins(df, k).toPandas()
    got_set = {tuple(map(int, r)) for r in got.to_numpy()}
    assert got_set == validate.brute_force_all_kcliques(e, k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_count_kcliques(ftb, k):
    e, _ = ftb
    assert clique_listing.count_kcliques(Prepared(e, k)) == len(
        validate.brute_force_all_kcliques(e, k)
    )


def test_node_scores_match_kernel_counts(ftb):
    """Node scores (Def. 5) == brute-force clique membership counts;
    nodes in no clique are absent from both."""
    e, _ = ftb
    cliques = validate.brute_force_all_kcliques(e, 3)
    assert Prepared(e, 3).scores == dict(Counter(v for c in cliques for v in c))


def test_triangle_count_against_duckdb_oracle(spark, ftb):
    """Independent-engine check: our Spark triangle listing count ==
    DuckDB's SQL self-join triangle count over the same edge table."""
    e, _ = ftb
    triangles = spark.createDataFrame(clique_listing.list_kcliques(Prepared(e, 3), spark=spark))
    spark_count = triangles.groupBy().count().withColumnRenamed("count", "n_triangles")
    assert_equivalent(
        spark_count,
        """
        SELECT count(*) AS n_triangles
        FROM edges e1
        JOIN edges e2 ON e2.src = e1.src AND e2.dst > e1.dst
        JOIN edges e3 ON e3.src = e1.dst AND e3.dst = e2.dst
        """,
        edges=pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]}),
    )


def test_per_node_triangle_scores_against_duckdb_oracle(spark, ftb):
    """Node scores for k=3 == DuckDB per-node triangle membership."""
    e, _ = ftb
    got = Prepared(e, 3).scores
    nodes = np.unique(e)
    scores = spark.createDataFrame(pd.DataFrame(
        {"node": nodes, "score": [got.get(int(v), 0) for v in nodes]}, dtype="int64"))
    assert_equivalent(
        scores,
        """
        WITH tri AS (
          SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
          FROM edges e1
          JOIN edges e2 ON e2.src = e1.src AND e2.dst > e1.dst
          JOIN edges e3 ON e3.src = e1.dst AND e3.dst = e2.dst
        ),
        members AS (
          SELECT a AS node FROM tri
          UNION ALL SELECT b FROM tri
          UNION ALL SELECT c FROM tri
        ),
        nodes AS (
          SELECT src AS node FROM edges UNION SELECT dst FROM edges
        )
        SELECT n.node AS node, count(m.node) AS score
        FROM nodes n LEFT JOIN members m ON m.node = n.node
        GROUP BY n.node
        """,
        edges=pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]}),
    )


def test_four_clique_count_against_duckdb_oracle(spark):
    """k=4 counting cross-checked in SQL on a smaller graph."""
    e = random_graph(2, 30, "pp")
    cliques = spark.createDataFrame(clique_listing.list_kcliques(Prepared(e, 4), spark=spark))
    cnt = cliques.groupBy().count().withColumnRenamed("count", "n4")
    assert_equivalent(
        cnt,
        """
        SELECT count(*) AS n4
        FROM edges e1
        JOIN edges e2 ON e2.src = e1.src AND e2.dst > e1.dst
        JOIN edges e3 ON e3.src = e1.src AND e3.dst > e2.dst
        JOIN edges a  ON a.src = e1.dst AND a.dst = e2.dst
        JOIN edges b  ON b.src = e1.dst AND b.dst = e3.dst
        JOIN edges c  ON c.src = e2.dst AND c.dst = e3.dst
        """,
        edges=pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]}),
    )


def test_member_columns_sorted_ascending(spark, ftb):
    e, _ = ftb
    arr = np.array(clique_listing.list_kcliques(Prepared(e, 4), spark=spark))
    assert (np.diff(arr, axis=1) > 0).all()


def test_oriented_edges_form_dag(ftb):
    e, _ = ftb
    rank = adj_mod.rank_by_degree(e)
    adj = adj_mod.orient_by_rank(e, rank)
    arcs = [(u, int(v)) for u, nb in as_dict(adj).items() for v in nb]
    for s, d in arcs:
        assert rank[s] > rank[d]
    assert len(arcs) == len(e)


def test_fig2_spark_listing(spark):
    e = paper_fig2_edges()
    assert len(clique_listing.list_kcliques(Prepared(e, 3), spark=spark)) == 7


def test_df_to_edges_canonical(spark, ftb):
    """The DataFrame wrappers collect their edges with ``df_to_edges``;
    reversed and repeated rows must give the canonical array back."""
    e, df = ftb
    assert np.array_equal(datasets.df_to_edges(df), e)
    messy = datasets.edges_to_df(spark, np.concatenate([e[:, ::-1], e[:50]]))
    assert np.array_equal(datasets.df_to_edges(messy), e)
