"""The benchmark's four workloads and the run that drives them.

Every workload is closed-loop from one process: a single caller issues an
operation (one solve, one index build or one edge update) through the public
entry points of ``repro.core`` and ``repro.dynamic`` and waits for it before
issuing the next.  A *pass* is the workload's fixed sequence of operations;
``pass_s`` is its time, scaled by the host probe, from the medians over a
run's passes (see :meth:`Workload.pass_seconds`).  Gates
check every pass; a failed gate marks the operation it checks as failed.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench import spark_session

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def digest(rows) -> str:
    """Order-free digest of a set of integer tuples (cliques, index rows)."""
    h = hashlib.sha256()
    for r in sorted(tuple(r) for r in rows):
        h.update((",".join(map(str, r)) + "\n").encode())
    return h.hexdigest()[:16]


def canon(S) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(int(v) for v in c)) for c in S)


def index_rows(cand) -> list[tuple[int, ...]]:
    return [owner + c for owner, cs in cand.items() for c in cs]


class Run:
    """Operation log of one benchmark run: attempts, failures, timings,
    Spark job counts per operation, the host probe that scales the timings,
    and the tracer while one is installed."""

    def __init__(self, workload: str, probe) -> None:
        self.workload = workload
        self.probe = probe
        self.spark = None
        self.tracer = None
        self.wall_s = 0.0  # unscaled wall time of the operations issued
        self.pass_id = -1
        self.attempted = 0
        self.failed: set[int] = set()  # attempt numbers
        self.latest: dict[tuple[str, int], int] = {}  # (op, pass) -> attempt
        self.groups: list[tuple[str, str]] = []  # (op, job group) this pass

    def op(self, name: str, fn, *args, **kwargs):
        """Issue one operation; return ``(result, seconds)``, the seconds
        scaled to the probe's reference speed (see ``hostprobe``)."""
        self.attempted += 1
        self.latest[name, self.pass_id] = self.attempted
        if self.spark is not None:
            group = f"{name}-{self.pass_id}-{self.attempted}"
            self.spark.sparkContext.setJobGroup(group, name)
            self.groups.append((name, group))
        span = self.tracer.span(name) if self.tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed.add(self.attempted)
            out = None
        t1 = time.perf_counter()
        self.wall_s += t1 - t0
        return out, self.probe.seconds(t0, t1)

    def gate(self, ok: bool, op: str, what: str) -> None:
        """Mark the latest call of ``op`` in this pass failed unless ``ok``."""
        if not ok:
            self.failed.add(self.latest[op, self.pass_id])
            print(f"gate failed [{self.workload} pass {self.pass_id}] {op}: {what}", file=sys.stderr)

    def pin(self, op: str, rows) -> None:
        """Check rows against the digest pinned for ``op``."""
        want = EXPECTED.get(self.workload, {}).get(op)
        got = {"size": len(rows), "digest": digest(rows)}
        self.gate(got == want, op, f"pinned {want}, got {got}")

    def job_counts(self) -> dict[str, tuple[int, int, int]]:
        """Spark (jobs, stages, tasks) per operation of the last pass."""
        if self.spark is None:
            return {}
        sc = self.spark.sparkContext
        sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
        out = {name: spark_session.job_counts(self.spark, g) for name, g in self.groups}
        self.groups = []
        return out


class Workload:
    """One named input and its pass; subclasses set the graph and k."""

    name: str
    graph: str
    k: int
    uses_spark = False

    def __init__(self, seed: int) -> None:
        pass

    def warm_up(self, run: Run) -> None:
        pass

    def final_check(self, run: Run) -> None:
        pass

    def pass_seconds(self, passes: list[dict]) -> float:
        """Time of one pass, from all ``passes`` of a run: the sum over
        operations of each one's median time."""
        return sum(statistics.median(t for p in passes for t in p["ops"][op])
                   for op in passes[0]["ops"])


class Spark(Workload):
    """Spark HG and LP and the Spark-parallel index build on a
    ``build_state`` state of HST k=4; then OPT (clique graph + exact MIS)
    under the harness budget and GC with ``driver_threshold=0``, so that
    selection runs as distributed rounds, on Hamsterster k=5.  Both inputs
    share one workload, and so one JVM launch, because a run spends about
    15 s launching and stopping Spark and the run budget of
    ``BENCHMARK.json`` has no room for two.  For the same budget there is
    no GC with the default ``driver_threshold``: its Spark work is the
    clique enumeration GC in rounds also runs, and its driver selection
    (``greedy_by_score``) runs on ``driver-static``."""

    name = "spark"
    graph, k = "HST", 4
    exact_graph, exact_k = "Hamsterster", 5
    uses_spark = True

    def setup(self, run: Run) -> None:
        from repro.graphs import datasets
        from repro.tables.table7 import build_state

        run.spark = spark_session.restart(run.spark)
        self.edges = datasets.edges(self.graph)
        self.df = datasets.edges_to_df(run.spark, self.edges).cache()
        self.df.count()
        self.state = build_state(self.edges, self.k)
        self.exact_df = datasets.edges_to_df(run.spark, datasets.edges(self.exact_graph)).cache()
        self.exact_df.count()

    def warm_up(self, run: Run) -> None:
        """LP on HST, untimed: it starts the Python workers and compiles
        the counting path the later operations share.  A whole pass would
        warm a little more but costs 30 s of the run budget."""
        from repro.core.lp import lp

        r, _ = run.op("lp", lp, run.spark, self.df, self.k)
        run.pin("lp", canon(r.S) if r is not None else [])
        run.job_counts()

    def run_pass(self, run: Run) -> dict:
        from repro.core.gc import gc
        from repro.core.hg import hg
        from repro.core.lp import lp
        from repro.core.opt import opt_or_status
        from repro.dynamic import index as idx
        from repro.dynamic import state as st_mod
        from repro.tables.common import fresh_budget

        self.last_index = None  # free the previous pass's state before building the next
        st = st_mod.from_edges(self.edges, self.k, self.state.S, self.state.scores)
        df, k = self.exact_df, self.exact_k
        res = {
            "hg": run.op("hg", hg, run.spark, self.df, self.k),
            "lp": run.op("lp", lp, run.spark, self.df, self.k),
            "index": run.op("index", idx.build_index_spark, run.spark, st),
            "opt": run.op("opt", lambda: opt_or_status(run.spark, df, k, fresh_budget())),
            "gc_rounds": run.op("gc_rounds", gc, run.spark, df, k, driver_threshold=0),
        }
        self.last_index = st
        return res

    def check(self, run: Run, res: dict) -> None:
        for op in ("hg", "lp", "gc_rounds"):
            r = res[op][0]
            run.pin(op, canon(r.S) if r is not None else [])
        lp_r = res["lp"][0]
        if lp_r is not None:
            run.gate(canon(lp_r.S) == canon(self.state.S), "lp", "Spark LP != driver build_state S")
        run.pin("index", index_rows(self.last_index.cand))
        # The "exact_lp" and "gc_rounds" pins were recorded from the driver's
        # lp_numpy and gc_numpy on Hamsterster k=5 and are equal, so matching
        # the "gc_rounds" pin means GC in rounds equals GC on the driver and,
        # by Theorem 4, LP.
        lp_size = EXPECTED[self.name]["exact_lp"]["size"]
        o = res["opt"][0]
        ok = o is not None and o.status == "OK"
        run.gate(ok, "opt", f"status {o.status if o is not None else None}")
        run.pin("opt", canon(o.S) if ok else [])
        if ok:
            run.gate(o.size >= lp_size, "opt", f"|OPT| {o.size} < |LP| {lp_size}")

    def final_check(self, run: Run) -> None:
        from repro.dynamic import index as idx
        from repro.dynamic import state as st_mod

        ref = st_mod.from_edges(self.edges, self.k, self.state.S, self.state.scores)
        idx.build_index(ref)
        run.gate(ref.cand == self.last_index.cand, "index", "Spark index != driver build_index")


class DriverStatic(Workload):
    """Spark-free HG, LP (pruned), L (unpruned) and GC on the driver."""

    name = "driver-static"
    graph, k = "FBP", 6

    def setup(self, run: Run) -> None:
        from repro.graphs import datasets

        self.edges = datasets.edges(self.graph)

    def run_pass(self, run: Run) -> dict:
        from repro.core.gc import gc_numpy
        from repro.core.hg import hg_numpy
        from repro.core.lp import lp_numpy

        e, k = self.edges, self.k
        return {
            "hg": run.op("hg", hg_numpy, e, k),
            "lp": run.op("lp", lp_numpy, e, k, prune=True),
            "l": run.op("l", lp_numpy, e, k, prune=False),
            "gc": run.op("gc", gc_numpy, e, k),
        }

    def check(self, run: Run, res: dict) -> None:
        S = {}
        for op in ("hg", "lp", "l", "gc"):
            r = res[op][0]
            S[op] = canon(r.S) if r is not None else []
            run.pin(op, S[op])
        run.gate(S["gc"] == S["lp"], "gc", "Theorem 4: GC != LP")
        run.gate(S["l"] == S["lp"], "l", "Theorem 4: L != LP")


def classify_update(state, kind: str, u: int, v: int) -> str:
    """Which path an update takes, judged from the state before it."""
    if kind == "del":
        cu = state.node2c.get(u)
        return "del_in_s" if cu is not None and cu == state.node2c.get(v) else "del_other"
    return "ins_free" if state.is_free(u) or state.is_free(v) else "ins_covered"


def has_free_clique(edges: np.ndarray, k: int, S) -> bool:
    """Is there a k-clique among the nodes S leaves free?  HG on the graph
    induced by the free nodes answers exactly: its first selection is a
    k-clique, and it selects one whenever one exists."""
    from repro.core.hg import hg_numpy

    covered = np.fromiter((v for c in S for v in c), dtype=np.int64)
    free_edges = edges[~np.isin(edges, covered).any(axis=1)]
    return len(free_edges) > 0 and hg_numpy(free_edges, k).size > 0


class DynamicUpdates(Workload):
    """Driver ``build_index`` on G - B, then a seeded interleaving of
    deletions drawn from G - B and insertions of B.

    B and the deletions are one fixed draw (``sample_seed``); the run's seed
    orders them.  A deletion inside a clique of S costs about 15 times
    another update, and which ones a draw holds moved the cost of a pass by
    a quarter from seed to seed, more than the change a run has to detect.
    ``pass_s`` is the index build plus every update of the pass."""

    name = "dynamic-updates"
    graph, k = "FBP", 3
    n_del = n_ins = 1000
    sample_seed = 0

    def __init__(self, seed: int) -> None:
        from repro.graphs import datasets

        self.rng = np.random.default_rng(seed)
        self.sample = np.random.default_rng(self.sample_seed)
        e = datasets.edges(self.graph)
        self.keep = np.ones(len(e), dtype=bool)
        self.keep[self.sample.choice(len(e), self.n_ins, replace=False)] = False
        self.inserts = [("ins", int(u), int(v)) for u, v in e[~self.keep]]
        self.ops = None
        self.final_digest = None

    def setup(self, run: Run) -> None:
        from repro.graphs import datasets
        from repro.tables.table7 import build_state

        self.start = datasets.edges(self.graph)[self.keep]
        self.state = build_state(self.start, self.k)

    def _draw_ops(self) -> list[tuple[str, int, int]]:
        rows = self.sample.choice(len(self.start), self.n_del, replace=False)
        ops = [("del", int(u), int(v)) for u, v in self.start[rows]] + self.inserts
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def run_pass(self, run: Run) -> dict:
        from repro.dynamic import index as idx
        from repro.dynamic import state as st_mod
        from repro.dynamic import updates as upd

        if self.ops is None:
            self.ops = self._draw_ops()
        self.last = None  # free the previous pass's state before building the next
        st = st_mod.from_edges(self.start, self.k, self.state.S, self.state.scores)
        res = {"index": run.op("index", idx.build_index, st)}
        res["index_size"] = idx.index_size(st)
        lat = []
        for kind, u, v in self.ops:
            path = classify_update(st, kind, u, v)
            fn = upd.delete_edge if kind == "del" else upd.insert_edge
            _, dt = run.op(kind, fn, st, u, v)
            lat.append((kind, path, dt))
        res["updates"] = lat
        self.last = st
        return res

    def pass_seconds(self, passes: list[dict]) -> float:
        return statistics.median(p["ops"]["index"][0] + sum(dt for *_, dt in p["updates"])
                                 for p in passes)

    def check(self, run: Run, res: dict) -> None:
        d = digest(canon(self.last.S))
        if self.final_digest is None:
            self.final_digest = d
        run.gate(d == self.final_digest, "del", "final S differs between passes")

    def final_check(self, run: Run) -> None:
        from repro.core import validate
        from repro.dynamic import index as idx
        from repro.dynamic import state as st_mod

        st = self.last
        edges = st.edges_array()
        try:
            validate.assert_valid_solution(edges, self.k, st.S)
            valid = True
        except AssertionError as exc:
            valid = False
            print(exc, file=sys.stderr)
        run.gate(valid, "del", "final S is not a valid disjoint k-clique set")
        run.gate(not has_free_clique(edges, self.k, st.S), "ins", "final S is not maximal")
        ref = st_mod.from_edges(edges, self.k, st.S, st.scores)
        idx.build_index(ref)
        have = {c: st.cand.get(c, set()) for c in st.S}
        run.gate(have == ref.cand, "ins", "index != from-scratch build_index")


WORKLOADS = {w.name: w for w in (Spark, DriverStatic, DynamicUpdates)}
