"""Spans and counters recorded around the program's layers, from outside.

While a traced pass runs, :class:`Tracer` replaces functions of the
``repro`` modules with thin wrappers and puts the originals back when the
pass ends.  A wrapper is installed on the module attribute that the caller
looks up: ``lp.py`` imports ``collect_scores`` by name, ``updates.py``
imports ``refresh_candidates`` and ``try_swap`` by name, ``opt.py``
imports ``exact_mis`` by name, so those are patched in the importing module.

Every wrapped call adds to a per-name call count and busy time.  Span layers
also record a span ``(id, name, start, end, parent, run)``; kernel calls are
far too many for one span each, so they are counted only, but their time is
still charged to the enclosing span so that self time (duration minus the
time covered by children) stays exact.  Kernel calls made inside Spark
executors run in worker processes and are not seen here.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _find_min_kind(args, kwargs) -> str:
    valid = args[4] if len(args) > 4 else kwargs.get("valid")
    return "heap_init" if valid is None else "recompute"


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    ``module`` is the module the caller looks ``attr`` up in.  ``spans``
    is false for kernels, which are counted but get no span each.  A
    ``classify`` function picks one of ``kinds`` per call and the call is
    charged to ``metric.<kind>``.  A ``counter`` ``(name, fn)`` adds
    ``fn(tracer, result)`` to the counter ``name`` after every call.
    """

    module: str
    attr: str
    metric: str
    spans: bool = True
    kinds: tuple[str, ...] = ()
    classify: Callable | None = None
    counter: tuple[str, Callable] | None = None


_OWNERS_REFRESHED = ("swap.owners_refreshed",
                     lambda tracer, out: int(tracer.inside("swap.refresh_candidates")))
_GROWTH = ("swap.growth", lambda tracer, out: int(out))

LAYERS = [
    Layer("repro.graphs.adjacency", "collect_out_adjacency", "adjacency.collect_out_adjacency"),
    Layer("repro.graphs.adjacency", "orient_by_rank", "adjacency.orient_by_rank"),
    Layer("repro.graphs.adjacency", "rank_by_degree", "adjacency.rank"),
    Layer("repro.graphs.adjacency", "rank_from_scores", "adjacency.rank"),
    Layer("repro.core.lp", "collect_scores", "scores.collect_scores"),
    Layer("repro.core.clique_listing", "count_kcliques", "clique_listing.count_kcliques"),
    Layer("repro.core.kernels", "count_from_source", "kernels.count_from_source", spans=False),
    Layer("repro.core.kernels", "find_min_clique", "kernels.find_min_clique", spans=False,
          kinds=("heap_init", "recompute"), classify=_find_min_kind),
    Layer("repro.core.kernels", "enumerate_from_source", "kernels.enumerate_from_source", spans=False),
    Layer("repro.core.kernels", "find_first_clique", "kernels.find_first_clique", spans=False),
    Layer("repro.core.kernels", "cliques_in_subset", "kernels.cliques_in_subset", spans=False),
    Layer("repro.core.gc", "greedy_by_score", "gc.greedy_by_score"),
    Layer("repro.core.gc", "select_distributed", "gc.select_distributed"),
    Layer("repro.core.hg", "hg_driver_from_oriented", "hg.hg_driver_from_oriented"),
    Layer("repro.core.opt", "exact_mis", "mis.exact_mis"),
    Layer("repro.dynamic.index", "candidates_for", "index.candidates_for", counter=_OWNERS_REFRESHED),
    Layer("repro.dynamic.index", "settle_free", "index.settle_free"),
    Layer("repro.dynamic.swap", "refresh_candidates", "swap.refresh_candidates"),
    Layer("repro.dynamic.updates", "refresh_candidates", "swap.refresh_candidates"),
    Layer("repro.dynamic.swap", "try_swap", "swap.try_swap", counter=_GROWTH),
    Layer("repro.dynamic.updates", "try_swap", "swap.try_swap", counter=_GROWTH),
]


def layer_names() -> list[str]:
    """Every name a wrapped call is charged to, in ``LAYERS`` order."""
    names = (f"{l.metric}.{kind}" if kind else l.metric
             for l in LAYERS for kind in (l.kinds or ("",)))
    return list(dict.fromkeys(names))


def counter_names() -> list[str]:
    return list(dict.fromkeys(l.counter[0] for l in LAYERS if l.counter))


class Tracer:
    """In-memory spans plus per-name ``calls`` / ``s`` / ``child_s`` totals.

    ``span`` is used by the benchmark around each operation it issues;
    ``installed`` adds the layer wrappers for the duration of a block.  The
    totals of the current pass are in ``stats``; ``reset`` starts a new
    pass, keeping the spans already recorded.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, child seconds, name]

    def reset(self, run_id: int) -> None:
        self.run_id = run_id
        self.stats.clear()
        self.counters.clear()

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open?"""
        return any(f[2] == name for f in self._stack)

    @contextmanager
    def span(self, name: str, record: bool = True):
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0, name]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            if record:
                self.spans.append((sid, name, t0, t1, parent, self.run_id))

    def _wrap(self, fn, layer: Layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer.metric
            if layer.classify is not None:
                name = f"{name}.{layer.classify(args, kwargs)}"
            with tracer.span(name, layer.spans):
                out = fn(*args, **kwargs)
            if layer.counter is not None:
                counter, count = layer.counter
                tracer.counters[counter] += count(tracer, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function of ``LAYERS`` for the duration of the block."""
        saved = []
        for layer in LAYERS:
            mod = importlib.import_module(layer.module)
            orig = getattr(mod, layer.attr)
            saved.append((mod, layer.attr, orig))
            setattr(mod, layer.attr, self._wrap(orig, layer))
        try:
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def self_seconds(self) -> dict[str, float]:
        """Per-name self time of the current pass: busy time minus the
        time covered by wrapped calls made inside it."""
        return {n: s[1] - s[2] for n, s in self.stats.items()}

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": self.spans,
        }
