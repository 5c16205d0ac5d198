"""Spark-path algorithm tests: HG/GC/LP/OPT end-to-end, equivalence
with the numpy reference paths, distributed selection rounds, budget
OOM/OOT behaviour, clique graph."""
import pytest

from repro.core import clique_graph, clique_listing, validate
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT
from repro.core.gc import gc, gc_numpy
from repro.core.hg import hg, hg_numpy
from repro.core.lp import lp, lp_numpy
from repro.core.opt import opt, opt_or_status
from repro.core.scores import with_clique_scores, node_scores
from repro.graphs import datasets

from tests.helpers import paper_fig2_edges, random_graph


@pytest.fixture(scope="module")
def ftb(spark):
    e = datasets.edges("FTB")
    return e, datasets.edges_to_df(spark, e)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_hg_spark_equals_numpy(spark, ftb, k):
    e, df = ftb
    assert sorted(hg(spark, df, k).S) == sorted(hg_numpy(e, k).S)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gc_spark_equals_numpy(spark, ftb, k):
    e, df = ftb
    got = gc(spark, df, k)
    want = gc_numpy(e, k)
    assert sorted(got.S) == sorted(want.S)
    assert got.n_cliques == want.n_cliques


@pytest.mark.parametrize("k", [3, 4, 5])
def test_lp_spark_equals_numpy(spark, ftb, k):
    e, df = ftb
    got, want = lp(spark, df, k), lp_numpy(e, k)
    assert sorted(got.S) == sorted(want.S)
    # HeapInit counts every source's FindMin work on both paths.
    assert got.visited == want.visited


@pytest.mark.parametrize("k", [3, 4])
def test_gc_distributed_rounds_equal_driver(spark, ftb, k):
    e, df = ftb
    seq = gc(spark, df, k)
    dist = gc(spark, df, k, driver_threshold=0)
    assert sorted(dist.S) == sorted(seq.S)
    assert dist.rounds > 0


def test_lp_without_prune_same_result(spark, ftb):
    e, df = ftb
    assert sorted(lp(spark, df, 3, prune=False).S) == sorted(lp_numpy(e, 3).S)


def test_gc_budget_oom(spark, ftb):
    _, df = ftb
    with pytest.raises(SimulatedOOM):
        gc(spark, df, 3, budget=Budget(max_cliques=5))


def test_lp_budget_oot(spark, ftb):
    _, df = ftb
    with pytest.raises(SimulatedOOT):
        lp(spark, df, 3, budget=Budget(max_seconds=-1.0))


def test_opt_fig2_is_maximum(spark):
    e = paper_fig2_edges()
    df = datasets.edges_to_df(spark, e)
    res = opt(spark, df, 3)
    assert res.status == "OK"
    assert res.size == 3 == validate.brute_force_max_disjoint(e, 3)
    validate.assert_valid_solution(e, 3, res.S)


@pytest.mark.parametrize("seed", [0, 1])
def test_opt_matches_bruteforce_optimum(spark, seed):
    e = random_graph(seed, 22, "pp")
    df = datasets.edges_to_df(spark, e)
    res = opt(spark, df, 3, budget=Budget(max_seconds=120))
    assert res.status == "OK"
    assert res.size == validate.brute_force_max_disjoint(e, 3)
    validate.assert_valid_solution(e, 3, res.S)


def test_opt_or_status_oom(spark, ftb):
    _, df = ftb
    res = opt_or_status(spark, df, 3, Budget(max_cliques=3))
    assert res.status == "OOM" and res.S == []


def test_opt_not_smaller_than_heuristics(spark):
    e = random_graph(3, 20, "pp")
    df = datasets.edges_to_df(spark, e)
    res = opt(spark, df, 3)
    assert res.size >= lp_numpy(e, 3).size
    assert res.size >= hg_numpy(e, 3).size


def test_clique_graph_fig2(spark):
    """Fig. 3: the clique graph of the running example has 7 nodes;
    C1 has degree 2."""
    e = paper_fig2_edges()
    df = datasets.edges_to_df(spark, e)
    cl = clique_listing.list_kcliques(spark, df, 3)
    cg = clique_graph.clique_graph_edges(cl, 3)
    from repro.core.scores import clique_id_col

    with_id = cl.withColumn("cid", clique_id_col(3))
    degs = clique_graph.clique_degrees(cg, with_id).toPandas()
    assert len(degs) == 7
    c1 = ",".join(f"{v:010d}" for v in (1, 3, 6))
    assert int(degs.set_index("cid").loc[c1, "cdeg"]) == 2
    # Paper: edge <C1, C2> exists because they share v3.
    pairs = {(r.cid1, r.cid2) for r in cg.toPandas().itertuples(index=False)}
    c2 = ",".join(f"{v:010d}" for v in (3, 5, 6))
    assert (min(c1, c2), max(c1, c2)) in pairs


def test_clique_scores_spark_match_driver(spark, ftb):
    e, df = ftb
    k = 3
    scores_df = node_scores(spark, df, k)
    cl = clique_listing.list_kcliques(spark, df, k)
    scored = with_clique_scores(cl, scores_df, k).toPandas()
    from repro.core import kernels
    from repro.graphs import adjacency as adj_mod

    rank = adj_mod.rank_by_degree(e)
    adj = adj_mod.orient_by_rank(e, rank)
    counts: dict[int, int] = {}
    for u in adj:
        kernels.count_from_source(adj, u, k, counts)
    for r in scored.itertuples(index=False):
        members = (int(r.m0), int(r.m1), int(r.m2))
        assert int(r.score) == sum(counts[v] for v in members)
