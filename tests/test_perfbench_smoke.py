"""The benchmark's pinned digests as a tier-1 check: a short run of each
Spark-free workload must pass every gate, so a change that alters S fails
here as well as in the benchmark. The spark workload is left out: it
starts a second JVM next to the test session's."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
