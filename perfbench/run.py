"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: spark, driver-static, dynamic-updates (see
perfbench/README.md).  The run sets up several times (``setup_s`` is the
median), warms up (Spark workloads only), then repeats passes until
``--seconds`` have gone by.  Every time is scaled to the fast state of the
host by ``hostprobe`` (unscaled wall time is the per-layer ``pass_wall_s``).
With ``--trace 1`` passes
alternate untraced / traced: per-layer counts come from the traced passes,
operation timings from the untraced ones, and the difference between the
two is the tracing overhead.  Spans are written to
``.bench_build/perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; other diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

PATHS = ("del_in_s", "del_other", "ins_free", "ins_covered")
SETUPS = 3  # set-ups per run; setup_s is their median


def _median(xs, default=0.0):
    xs = list(xs)
    return statistics.median(xs) if xs else default


def _p99(xs) -> float:
    return statistics.quantiles(xs, n=100)[98] if len(xs) >= 2 else _median(xs)


def end_to_end(wl, setups, passes, rss_mb) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    return {
        "setup_s": (_median(setups), "s"),
        "pass_s": (wl.pass_seconds(untraced), "s"),
        "peak_rss_mb": (rss_mb["driver"], "MB"),
    }


def _layer(traced, name, field):
    return _median(p["layers"].get(name, (0, 0.0))[field] for p in traced)


def per_layer(wl, passes, rss_mb, probe) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    from perfbench import tracing

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    m: dict[str, tuple[float, str]] = {}

    def op_s(op):
        return _median(t for p in untraced for t in p["ops"].get(op, []))

    for metric, op in (("hg_s", "hg"), ("lp_s", "lp"), ("l_s", "l"), ("gc_s", "gc"),
                       ("gc_rounds_s", "gc_rounds"), ("opt_s", "opt"),
                       ("index_build_s", "index")):
        m[metric] = (op_s(op), "s")

    upd = [u for p in untraced for u in p["updates"]]
    by_kind = {k: [dt for kind, _, dt in upd if kind == k] for k in ("del", "ins")}
    n_upd = len(upd)
    m["updates_per_s"] = (n_upd / sum(dt for *_, dt in upd) if n_upd else 0.0, "1/s")
    m["del_p99_ms"] = (_p99(by_kind["del"]) * 1e3 if by_kind["del"] else 0.0, "ms")
    m["ins_p99_ms"] = (_p99(by_kind["ins"]) * 1e3 if by_kind["ins"] else 0.0, "ms")
    m["updates.del_p50_ms"] = (_median(by_kind["del"]) * 1e3, "ms")
    m["updates.ins_p50_ms"] = (_median(by_kind["ins"]) * 1e3, "ms")
    first = untraced[0]["updates"] if untraced else []
    for path in PATHS:
        m[f"updates.{path}.count"] = (sum(1 for _, p, _ in first if p == path), "count")
        m[f"updates.{path}.p50_ms"] = (_median(dt for _, p, dt in upd if p == path) * 1e3, "ms")

    m["jvm_peak_rss_mb"] = (rss_mb["jvm"], "MB")
    m["pass_wall_s"] = (_median(p["wall_s"] for p in untraced), "s")
    m["host.slowdown"] = (probe.slowdown(), "ratio")
    overhead = 0.0
    if traced and untraced:
        overhead = (wl.pass_seconds(traced) / wl.pass_seconds(untraced) - 1) * 100
    m["trace.overhead_pct"] = (overhead, "%")
    m["trace.spans"] = (_median(p["n_spans"] for p in traced), "count")

    for op in ("hg", "lp", "index", "opt", "gc_rounds"):
        for i, what in enumerate(("jobs", "stages", "tasks")):
            m[f"spark.{op}.{what}"] = (
                _median(p["jobs"][op][i] for p in traced if op in p["jobs"]), "count")

    for name in tracing.layer_names():
        m[f"{name}.calls"] = (_layer(traced, name, 0), "count")
        m[f"{name}.s"] = (_layer(traced, name, 1), "s")
    for name in tracing.counter_names():
        m[name] = (_median(p["counters"].get(name, 0) for p in traced), "count")
    for name in traced[0]["counts"]:
        unit = "ratio" if name == "lp.visited_ratio" else "count"
        m[name] = (_median(p["counts"][name] for p in traced), unit)
    return m


def result_counts(res: dict, last_state) -> dict:
    """Work counters read from the result objects of one pass; a counter
    of an operation the pass does not run reads 0."""
    from perfbench.workloads import canon, digest

    def field(op, name):
        r = res.get(op, (None, 0))[0]
        return getattr(r, name) if r is not None else 0

    index = res.get("index_size", res.get("index", (None, 0))[0])
    updated = "updates" in res and last_state is not None
    return {
        "lp.n_heap_init": field("lp", "n_heap_init"),
        "lp.n_recomputes": field("lp", "n_recomputes"),
        "lp.visited": field("lp", "visited"),
        "l.visited": field("l", "visited"),
        "lp.visited_ratio": (field("lp", "visited") / field("l", "visited")
                             if field("l", "visited") else 0),
        "gc.n_cliques": field("gc", "n_cliques"),
        "gc.rounds": field("gc", "rounds"),
        "gc_rounds.n_cliques": field("gc_rounds", "n_cliques"),
        "gc_rounds.rounds": field("gc_rounds", "rounds"),
        "hg.n_inspected": field("hg", "n_inspected"),
        "opt.n_cliques": field("opt", "n_cliques"),
        "opt.n_cg_edges": field("opt", "n_cg_edges"),
        "index.size": index if isinstance(index, int) else 0,
        "dynamic.s_size": len(last_state.S) if updated else 0,
        "dynamic.s_digest": int(digest(canon(last_state.S))[:12], 16) if updated else 0,
    }


def _clear_memos() -> None:
    """Drop the graph generators' memo so every set-up generates afresh."""
    from repro.graphs import generators

    for obj in vars(generators).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root), str(root / "src")]
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)

    from perfbench import hostprobe, spark_session, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if workloads.WORKLOADS[args.workload].uses_spark:
        spark_session.configure(root, work)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    probe = hostprobe.Probe()
    run = workloads.Run(wl.name, probe)
    tracer = tracing.Tracer()
    setups, passes = [], []
    rss = {"driver": 0.0, "jvm": 0.0}
    with probe.running():
        try:
            if wl.uses_spark:
                run.spark = spark_session.start()  # untimed: launches the JVM
            for _ in range(SETUPS):
                _clear_memos()
                t0 = time.perf_counter()
                wl.setup(run)
                setups.append(probe.seconds(t0, time.perf_counter()))
            wl.warm_up(run)  # untimed; Spark needs it (JIT, Python workers)
            start = time.perf_counter()
            while True:
                run.pass_id = len(passes)
                run.wall_s = 0.0
                traced = bool(args.trace) and run.pass_id % 2 == 1
                if traced:
                    tracer.reset(run.pass_id)
                    n0 = len(tracer.spans)
                    run.tracer = tracer
                    with tracer.installed():
                        res = wl.run_pass(run)
                    run.tracer = None
                else:
                    res = wl.run_pass(run)
                wl.check(run, res)
                passes.append({
                    "traced": traced,
                    "wall_s": run.wall_s,
                    "ops": {op: [r[1]] for op, r in res.items() if isinstance(r, tuple)},
                    "updates": res.get("updates", []),
                    "jobs": run.job_counts(),
                    "counts": result_counts(res, getattr(wl, "last", None)),
                    "layers": {n: tuple(s[:2]) for n, s in tracer.stats.items()} if traced else {},
                    "self_s": tracer.self_seconds() if traced else {},
                    "counters": dict(tracer.counters) if traced else {},
                    "n_spans": len(tracer.spans) - n0 if traced else 0,
                })
                done = time.perf_counter() - start >= args.seconds
                if done and (not args.trace or len(passes) >= 2):
                    break
            # Memory is read before the final gates, which use memory of their own.
            rss["driver"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if run.spark is not None:
                rss["jvm"] = spark_session.peak_rss_mb(spark_session.jvm_pid(run.spark))
            t0 = time.perf_counter()
            wl.final_check(run)
            check_s = time.perf_counter() - t0
        finally:
            if run.spark is not None:
                spark_session.shutdown(run.spark)

    env = {
        "workload": wl.name, "seed": args.seed, "graph": wl.graph, "k": wl.k,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "passes": len(passes), "setups_s": setups, "final_check_s": check_s,
        "host_slowdown": probe.slowdown(),
    }
    if wl.uses_spark:
        import pyspark

        env.update(master=spark_session.master(), driver_memory=spark_session.DRIVER_MEMORY,
                   pyspark=pyspark.__version__)
    import numpy

    env["numpy"] = numpy.__version__
    print(json.dumps(env), file=sys.stderr)
    if args.trace:
        out = work / f"trace-{wl.name}-{args.seed}.json"
        out.write_text(json.dumps({
            **tracer.dump(),
            "self_s": [p["self_s"] for p in passes if p["traced"]],
            "env": env,
        }))
        metrics = per_layer(wl, passes, rss, probe)
    else:
        metrics = end_to_end(wl, setups, passes, rss)
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
