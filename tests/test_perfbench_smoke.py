"""The benchmark's pinned digests as a tier-1 check: a short run of each
Spark-free workload must pass every gate, so a change that alters S fails
here as well as in the benchmark. The spark workload is not run: it
starts a second JVM next to the test session's. Its pins are recomputed
on the driver instead, from the same inputs."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.workloads import EXPECTED, canon, digest, index_rows
from repro.core import gc, hg, lp, opt
from repro.core.prepare import Prepared
from repro.dynamic.index import build_index
from repro.graphs import datasets
from repro.tables.common import fresh_budget
from repro.tables.table7 import build_state

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["driver-static", "dynamic-updates"])
def test_perfbench_workload_holds_its_pins(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), out.stderr[-4000:]



def _index_rows(e):
    st = build_state(e, 4)
    build_index(st)
    return index_rows(st.cand)


# The spark workload's pins, each as (input, rows computed on the driver):
# HG, LP and the index on HST k=4, then OPT, GC and LP on Hamsterster k=5.
SPARK_PINS = {
    "hg": ("HST", lambda e: canon(hg.hg_numpy(e, 4).S)),
    "lp": ("HST", lambda e: canon(lp.lp_numpy(e, 4).S)),
    "index": ("HST", _index_rows),
    "opt": ("Hamsterster", lambda e: canon(opt.solve(Prepared(e, 5), fresh_budget()).S)),
    "gc_rounds": ("Hamsterster", lambda e: canon(gc.gc_numpy(e, 5).S)),
    "exact_lp": ("Hamsterster", lambda e: canon(lp.lp_numpy(e, 5).S)),
}


@pytest.mark.parametrize("op", list(EXPECTED["spark"]))
def test_spark_pin_holds_on_the_driver(op):
    name, rows_of = SPARK_PINS[op]
    rows = rows_of(datasets.edges(name))
    assert {"size": len(rows), "digest": digest(rows)} == EXPECTED["spark"][op]
