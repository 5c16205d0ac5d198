"""The benchmark's own Spark session: launch, job-group counts, memory, stop.

Settings follow the repository's harness session (``jobs/_session.py``):
Arrow on, broadcast joins off, 64 shuffle partitions.  On top of that the
console progress bar is off (it would interleave with the printed metrics),
and every scratch directory Spark, the JVM and the Python workers write to
lives under the benchmark's work directory inside the checkout.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

DRIVER_MEMORY = "2g"


def cores() -> int:
    """Two executor threads: on 4 shared cores, ``local[4]`` plus the driver
    and the Python workers oversubscribed the VM, and runs were slower and
    noisier (pass_s over five seeds 24-32 s, against 22-26 s)."""
    return min(2, len(os.sched_getaffinity(0)))


def master() -> str:
    return f"local[{cores()}]"


def configure(root: Path, work: Path) -> None:
    """Set the launch environment; must run before the JVM starts."""
    # The JVM and its Python workers inherit the driver's cores; sharing
    # them puts the host probe (hostprobe.py) on the cores Spark runs on.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cores()])
    tmp = work / "tmp"
    local = work / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # Executors import ``repro`` in fresh worker processes.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {master()}",
            f"--driver-memory {DRIVER_MEMORY}",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(local))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(work / 'spark-warehouse'))}",
            "pyspark-shell",
        ]
    )


def start():
    """A session with the harness settings (reuses a running JVM)."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def restart(spark):
    """Stop the session (if any) and start a fresh one in the same JVM."""
    if spark is not None:
        spark.stop()
    return start()


def job_counts(spark, group: str) -> tuple[int, int, int]:
    """(jobs, stages, tasks) run under job group ``group``."""
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for j in jobs:
        info = tracker.getJobInfo(j)
        for s in info.stageIds if info else ():
            st = tracker.getStageInfo(s)
            if st is not None:
                stages += 1
                tasks += st.numTasks
    return len(jobs), stages, tasks


def jvm_pid(spark) -> int:
    return int(spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid())


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def shutdown(spark) -> None:
    """Stop Spark and its JVM, and wait for the JVM to exit.  The JVM
    exits when its stdin closes; its Python workers exit with it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
