"""Spark-path algorithm tests: HG/GC/LP/OPT end-to-end, equivalence
with the numpy reference paths, budget OOM/OOT behaviour, clique
graph."""
import numpy as np
import pytest

from repro.core import clique_listing, validate
from repro.core.clique_graph import clique_graph
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT
from repro.core.gc import gc, gc_numpy
from repro.core.hg import hg, hg_numpy
from repro.core.lp import lp, lp_numpy
from repro.core.opt import opt, opt_or_status
from repro.core.prepare import Prepared
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


# ``gc`` selects on the driver and ignores ``driver_threshold``; these
# keep the thresholds that once chose distributed selection rounds, and
# check that Spark GC equals GC on the driver.
@pytest.mark.parametrize("k", [3, 4])
def test_gc_distributed_rounds_equal_driver(spark, ftb, k):
    e, df = ftb
    got = gc(spark, df, k, driver_threshold=0)
    assert sorted(got.S) == sorted(gc_numpy(e, k).S)


def test_gc_rounds_then_driver_tail_equal_driver(spark, ftb):
    e, df = ftb
    want = gc_numpy(e, 3)
    got = gc(spark, df, 3, driver_threshold=want.n_cliques - 1)
    assert sorted(got.S) == sorted(want.S)


def test_gc_distributed_rounds_equal_driver_wide_ids(spark):
    """Node ids of eleven digits: the bowtie (two triangles sharing one
    node, equal clique scores) breaks the tie on the member tuple, and
    Spark GC and OPT must break it as GC on the driver does."""
    bowtie = np.array([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], dtype=np.int64)
    e = bowtie + 9_999_999_998
    df = datasets.edges_to_df(spark, e)
    want = gc_numpy(e, 3).S
    assert gc(spark, df, 3, driver_threshold=0).S == want
    assert opt(spark, df, 3).S == want


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


@pytest.mark.parametrize("algo", [gc, opt, clique_listing.count_kcliques],
                         ids=["gc", "opt", "count_kcliques"])
def test_budget_oot_after_driver_count(spark, ftb, algo):
    """The count runs on the driver without a deadline; the time budget
    still fires before any clique is listed."""
    _, df = ftb
    with pytest.raises(SimulatedOOT):
        algo(spark, df, 3, budget=Budget(max_seconds=-1.0))


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


def test_clique_graph_fig2():
    """Fig. 3: the clique graph of the running example has 7 nodes;
    C1 has degree 2."""
    cg = clique_graph(sorted(Prepared(paper_fig2_edges(), 3).cliques()))
    assert len(cg) == 7
    c1 = (1, 3, 6)
    assert len(cg[c1]) == 2
    # Paper: edge <C1, C2> exists because they share v3.
    c2 = (3, 5, 6)
    assert c2 in cg[c1] and c1 in cg[c2]


def test_clique_scores_spark_match_driver(spark, ftb):
    e, _ = ftb
    k = 3
    scored = clique_listing.list_kcliques(spark, Prepared(e, k)).toPandas()
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
