"""DataFrame-wrapper and driver algorithm tests: HG/GC/LP/OPT end to
end, the wrappers kept for the benchmark against ``solve``, budget
OOM/OOT behaviour, clique graph."""
import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.core import clique_listing, opt, validate
from repro.core import gc as gc_mod
from repro.core import hg as hg_mod
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


# The DataFrame wrappers kept for perfbench/ collect their edges and run
# ``solve`` on the driver: (wrapper(spark, df, k), solve(prep)) pairs.
WRAPPERS = {
    "hg": (hg, hg_mod.solve),
    "lp": (lp, lp_mod.solve),
    "l": (partial(lp, prune=False), partial(lp_mod.solve, prune=False)),
    "gc": (gc, gc_mod.solve),
    "opt": (
        lambda spark, df, k: opt_or_status(spark, df, k, Budget()),
        lambda prep: opt.solve(prep, Budget()),
    ),
}


def assert_wrapper_equals_solve(spark, e, df, k, name):
    """The wrapper's result equals ``solve(Prepared(e, k))``: the same S
    in the same order and every counter (``visited``, ``n_heap_init``,
    ``n_recomputes``, ``n_cliques``, ``n_inspected``, ...)."""
    wrapper, solve = WRAPPERS[name]
    got = wrapper(spark, df, k)
    assert got == solve(Prepared(e, k)), name
    return got


@pytest.mark.parametrize("k", [3, 4, 5])
def test_hg_spark_equals_numpy(spark, ftb, k):
    assert_wrapper_equals_solve(spark, *ftb, k, "hg")


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gc_spark_equals_numpy(spark, ftb, k):
    assert_wrapper_equals_solve(spark, *ftb, k, "gc")


@pytest.mark.parametrize("k", [3, 4, 5])
def test_lp_spark_equals_numpy(spark, ftb, k):
    assert_wrapper_equals_solve(spark, *ftb, k, "lp")


def test_lp_without_prune_same_result(spark, ftb):
    """L through its wrapper equals L's ``solve``, and by Theorem 4 has
    LP's S."""
    e, _ = ftb
    got = assert_wrapper_equals_solve(spark, *ftb, 3, "l")
    assert got.S == lp_numpy(e, 3).S


def test_opt_or_status_equals_solve(spark, ftb):
    assert assert_wrapper_equals_solve(spark, *ftb, 5, "opt").status == "OK"


@pytest.mark.parametrize(
    "edges, k, n_sources",
    [
        # A 10-cycle: out-degree <= 2 < k - 1, so no source at all.
        (np.array(sorted([(i, i + 1) for i in range(9)] + [(0, 9)]), dtype=np.int64), 4, 0),
        # One 4-clique with a pendant path: a single source.
        (np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
                  dtype=np.int64), 4, 1),
    ],
    ids=["no_sources", "one_source"],
)
def test_wrappers_with_few_sources(spark, edges, k, n_sources):
    """HeapInit and GC's listing loop over no source, or over one: every
    wrapper still equals ``solve``, and LP keeps one heap row per source
    that roots a clique."""
    prep = Prepared(edges, k)
    assert len(prep.adj.sources(k)) == len(prep.degree_adj.sources(k)) == n_sources
    df = datasets.edges_to_df(spark, edges)
    for name in WRAPPERS:
        assert_wrapper_equals_solve(spark, edges, df, k, name)
    res = lp_mod.solve(prep)
    assert (res.size, res.n_heap_init) == (n_sources, n_sources)
    assert gc_mod.solve(prep).n_cliques == n_sources


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
    the GC and L/LP wrappers, OPT, and L/LP on edge arrays must break it
    as GC on the driver does. HG and L/LP mask chosen nodes over dense
    positions, so none of them allocates an entry per id."""
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


@pytest.mark.parametrize("kind", ["pp", "plc", "er"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_wide_ids_give_the_mapped_solution(kind, k):
    """The algorithms see node ids only at the boundary: relabelling the
    nodes through a random strictly increasing map, with gaps of up to
    about 10^12, gives the mapped S and the same counters (``visited``,
    ``n_heap_init``, ``n_cliques``, ...) for HG, GC, L, LP and OPT."""
    e = random_graph(k, 20, kind)
    ids = np.cumsum(np.random.default_rng(k).integers(1, 10**12, size=int(e.max()) + 1))
    wide = ids[e]
    algos = {
        "HG": hg_mod.solve,
        "GC": gc_mod.solve,
        "L": partial(lp_mod.solve, prune=False),
        "LP": lp_mod.solve,
        "OPT": opt.solve,
    }
    for name, solve in algos.items():
        want = solve(Prepared(e, k))
        want = dataclasses.replace(want, S=[tuple(ids[list(c)].tolist()) for c in want.S])
        assert solve(Prepared(wide, k)) == want, name


@pytest.mark.parametrize("on_spark", [True, False], ids=["spark", "driver"])
def test_gc_budget_oom(spark, ftb, on_spark):
    """The clique cap stops GC, also through its DataFrame wrapper."""
    e, df = ftb
    with pytest.raises(SimulatedOOM):
        if on_spark:
            gc(spark, df, 3, Budget(max_cliques=5))
        else:
            gc_mod.solve(Prepared(e, 3), Budget(max_cliques=5))


def test_lp_budget_oot(spark, ftb):
    _, df = ftb
    with pytest.raises(SimulatedOOT):
        lp(spark, df, 3, budget=Budget(max_seconds=-1.0))


@pytest.mark.parametrize(
    "algo",
    [
        lambda spark, df, prep, budget: gc(spark, df, 3, budget),
        lambda spark, df, prep, budget: opt.solve(prep, budget),
        lambda spark, df, prep, budget: clique_listing.count_kcliques(prep, budget),
        lambda spark, df, prep, budget: gc_mod.solve(prep, budget),
        lambda spark, df, prep, budget: lp_mod.solve(prep, budget=budget),
    ],
    ids=["gc", "opt", "count_kcliques", "gc-driver", "lp-driver"],
)
def test_budget_oot_after_driver_count(spark, ftb, algo):
    """The count runs on the driver without checking the clock; the time
    budget still fires before any clique is listed, in GC (also through
    its DataFrame wrapper), OPT and L/LP."""
    e, df = ftb
    with pytest.raises(SimulatedOOT):
        algo(spark, df, Prepared(e, 3), Budget(max_seconds=-1.0))


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
    prep = Prepared(paper_fig2_edges(), 3)
    cliques = sorted(prep.to_ids(clique_listing.list_kcliques(prep)))
    cg = clique_graph(cliques)
    assert len(cg) == 7
    c1 = cliques.index((1, 3, 6))
    assert cg[c1].bit_count() == 2
    # Paper: edge <C1, C2> exists because they share v3.
    c2 = cliques.index((3, 5, 6))
    assert cg[c1] >> c2 & 1 and cg[c2] >> c1 & 1


def test_clique_scores_spark_match_driver(spark, ftb, monkeypatch):
    """GC through its DataFrame wrapper scores every clique once, with
    s_c = the sum of the node scores (``Prepared.scores``) of the same
    edges over its members; both are keyed by position."""
    e, df = ftb
    k = 3
    seen = []
    order = gc_mod.greedy_order
    monkeypatch.setattr(gc_mod, "greedy_order", lambda *a: seen.append(a) or order(*a))
    prep = Prepared(e, k)
    gc(spark, df, k)
    (s_c, rows, _), = seen
    cliques = prep.to_ids(rows)
    assert set(cliques) == validate.brute_force_all_kcliques(e, k)
    assert len(cliques) == len(set(cliques))
    assert s_c.tolist() == [sum(prep.scores[p] for p in r) for r in rows.tolist()]
