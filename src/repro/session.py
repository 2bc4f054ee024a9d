"""The one local SparkSession factory of the tests, benchmarks and jobs."""
from __future__ import annotations

import os


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback.  The cgroup read is best-effort: a container
    runtime's sysfs emulation may not pass the host limit through.  An
    unbounded value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a
    missing limit) is treated as absent so the JVM is never handed an
    impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def get_spark(app: str):
    """A local-mode SparkSession (the running one, if there is one).

    Master and driver memory are JVM launch options: pyspark reads
    ``PYSPARK_SUBMIT_ARGS`` when it starts the gateway, so they are set
    here, before ``getOrCreate``.  ``SPARK_MASTER`` (default
    ``local[*]``) and ``SPARK_DRIVER_MEM`` override them.  The session
    configs (shuffle partitions from ``SPARK_SHUFFLE_PARTITIONS``, Arrow,
    no ``[Stage …]`` progress bars in job logs) are honoured after launch.
    """
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
