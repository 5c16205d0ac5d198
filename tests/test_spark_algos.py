"""Spark-path algorithm tests: HG/GC/LP/OPT end-to-end, equivalence
with the numpy reference paths, budget OOM/OOT behaviour, clique
graph."""
import time

import numpy as np
import pytest

from repro.core import clique_listing, opt, validate
from repro.core import gc as gc_mod
from repro.core import lp as lp_mod
from repro.core.clique_graph import clique_graph
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT
from repro.core.gc import gc, gc_numpy
from repro.core.hg import hg, hg_numpy
from repro.core.lp import lp, lp_numpy
from repro.core.opt import opt_or_status
from repro.core.prepare import Prepared
from repro.graphs import adjacency as adj_mod
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
    Spark GC and OPT, and L/LP on both backends, must break it as GC on
    the driver does. HG and L/LP mask chosen nodes over dense positions,
    so none of them allocates an entry per id."""
    bowtie = np.array([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], dtype=np.int64)
    e = bowtie + 9_999_999_998
    df = datasets.edges_to_df(spark, e)
    want = gc_numpy(e, 3).S
    assert want == [tuple(range(9_999_999_998, 10_000_000_001))]
    assert gc(spark, df, 3, driver_threshold=0).S == want
    assert opt.solve(Prepared(e, 3)).S == want
    for prune in (True, False):
        assert lp_numpy(e, 3, prune).S == want
        assert lp(spark, df, 3, prune=prune).S == want
    got = hg_numpy(e, 3).S
    assert len(got) == 1 and validate.is_clique(adj_mod.adj_sets(e), got[0])
    assert hg(spark, df, 3).S == got


def test_lp_without_prune_same_result(spark, ftb):
    e, df = ftb
    assert sorted(lp(spark, df, 3, prune=False).S) == sorted(lp_numpy(e, 3).S)


@pytest.mark.parametrize("on_spark", [True, False], ids=["spark", "driver"])
def test_gc_budget_oom(spark, ftb, on_spark):
    e, _ = ftb
    with pytest.raises(SimulatedOOM):
        gc_mod.solve(Prepared(e, 3), Budget(max_cliques=5), spark if on_spark else None)


def test_lp_budget_oot(spark, ftb):
    _, df = ftb
    with pytest.raises(SimulatedOOT):
        lp(spark, df, 3, budget=Budget(max_seconds=-1.0))


@pytest.mark.parametrize(
    "algo",
    [
        lambda prep, budget, spark: gc_mod.solve(prep, budget, spark),
        lambda prep, budget, spark: opt.solve(prep, budget),
        lambda prep, budget, spark: clique_listing.count_kcliques(prep, budget),
        lambda prep, budget, spark: gc_mod.solve(prep, budget),
        lambda prep, budget, spark: lp_mod.solve(prep, budget=budget),
    ],
    ids=["gc", "opt", "count_kcliques", "gc-driver", "lp-driver"],
)
def test_budget_oot_after_driver_count(spark, ftb, algo):
    """The count runs on the driver without a deadline; the time budget
    still fires before any clique is listed, also when GC's listing and
    LP's HeapInit run on the driver."""
    e, _ = ftb
    with pytest.raises(SimulatedOOT):
        algo(Prepared(e, 3), Budget(max_seconds=-1.0), spark)


class _ExecutorDeadline(Budget):
    """Passes every driver check; the deadline it hands to the Spark
    tasks is already past."""

    @property
    def epoch_deadline(self) -> float:
        return time.time() - 1.0


@pytest.mark.parametrize("algo", [lp, gc], ids=["lp", "gc"])
def test_budget_oot_inside_spark_tasks(spark, ftb, algo):
    """A deadline that expires inside the fan-out's tasks fails them on
    the executors; the failure must come back as ``SimulatedOOT``."""
    _, df = ftb
    with pytest.raises(SimulatedOOT, match="from executor"):
        algo(spark, df, 3, budget=_ExecutorDeadline())


@pytest.mark.parametrize(
    "edges, k, n_sources",
    [
        # A 10-cycle: out-degree <= 2 < k - 1, so no source at all.
        (np.array(sorted([(i, i + 1) for i in range(9)] + [(0, 9)]), dtype=np.int64), 4, 0),
        # One 4-clique with a pendant path: a single source, fewer than
        # cores, so the other slices are empty.
        (np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
                  dtype=np.int64), 4, 1),
    ],
    ids=["no_sources", "fewer_sources_than_cores"],
)
def test_fan_out_edge_cases_equal_numpy(spark, edges, k, n_sources):
    adj = Prepared(edges, k).degree_adj
    slices = clique_listing.fan_out(spark, adj, k, lambda srcs, adj: len(srcs))
    assert len(slices) == spark.sparkContext.defaultParallelism
    assert sum(slices) == n_sources
    # Without a session: one slice, every source, on the driver.
    slices = clique_listing.fan_out(None, adj, k, lambda srcs, adj: srcs)
    assert slices == [adj.sources(k).tolist()] and len(slices[0]) == n_sources
    df = datasets.edges_to_df(spark, edges)
    got, want = lp(spark, df, k), lp_numpy(edges, k)
    assert (got.S, got.visited, got.n_heap_init) == (want.S, want.visited, want.n_heap_init)
    got, want = gc(spark, df, k), gc_numpy(edges, k)
    assert (got.S, got.n_cliques) == (want.S, want.n_cliques)


def test_fan_out_deals_sources_evenly(spark):
    """Slice sizes differ by at most one, also past ``parallelize``'s
    1024-element serialization batches."""
    # Leaves 2..20001 ranked above the two hubs: out-degree 2 each.
    edges = np.array([(h, v) for v in range(2, 20_002) for h in (0, 1)], dtype=np.int64)
    adj = adj_mod.orient_by_rank(edges, {v: v for v in range(20_002)})
    sizes = clique_listing.fan_out(spark, adj, 3, lambda srcs, adj: len(srcs))
    assert sum(sizes) == 20_000 and max(sizes) - min(sizes) <= 1


def test_opt_fig2_is_maximum():
    e = paper_fig2_edges()
    res = opt.solve(Prepared(e, 3))
    assert res.status == "OK"
    assert res.size == 3 == validate.brute_force_max_disjoint(e, 3)
    validate.assert_valid_solution(e, 3, res.S)


@pytest.mark.parametrize("seed", [0, 1])
def test_opt_matches_bruteforce_optimum(seed):
    e = random_graph(seed, 22, "pp")
    res = opt.solve(Prepared(e, 3), Budget(max_seconds=120))
    assert res.status == "OK"
    assert res.size == validate.brute_force_max_disjoint(e, 3)
    validate.assert_valid_solution(e, 3, res.S)


def test_opt_or_status_oom(spark, ftb):
    _, df = ftb
    res = opt_or_status(spark, df, 3, Budget(max_cliques=3))
    assert res.status == "OOM" and res.S == []


def test_opt_not_smaller_than_heuristics():
    e = random_graph(3, 20, "pp")
    res = opt.solve(Prepared(e, 3))
    assert res.size >= lp_numpy(e, 3).size
    assert res.size >= hg_numpy(e, 3).size


def test_clique_graph_fig2():
    """Fig. 3: the clique graph of the running example has 7 nodes;
    C1 has degree 2."""
    cg = clique_graph(sorted(clique_listing.list_kcliques(Prepared(paper_fig2_edges(), 3))))
    assert len(cg) == 7
    c1 = (1, 3, 6)
    assert len(cg[c1]) == 2
    # Paper: edge <C1, C2> exists because they share v3.
    c2 = (3, 5, 6)
    assert c2 in cg[c1] and c1 in cg[c2]


def test_clique_scores_spark_match_driver(spark, ftb, monkeypatch):
    """GC on Spark scores every clique once, with s_c = the sum of the
    driver's node scores (``Prepared.scores``) over its members."""
    e, _ = ftb
    k = 3
    scored = []
    select = gc_mod.greedy_by_score
    monkeypatch.setattr(gc_mod, "greedy_by_score", lambda rows: select(scored.extend(rows) or rows))
    gc_mod.solve(Prepared(e, k), spark=spark)
    scores = Prepared(e, k).scores
    assert {c for _, c in scored} == validate.brute_force_all_kcliques(e, k)
    assert len(scored) == len({c for _, c in scored})
    for score, members in scored:
        assert score == sum(scores[v] for v in members)
