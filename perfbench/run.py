"""Benchmark of the SNT-index: query latency, throughput, set-up and size.

    python3 perfbench/run.py --workload temporal-zone --seed 1 \\
        --seconds 12 --trace 0

One run generates (or reloads) the SF = 0.1 trajectory set on a 40x40
grid and builds the index the workload needs ``N_BUILDS`` times.  After
each build, that index serves ``1/N_BUILDS`` of the timed query phase:
the workload's queries in a closed loop with one client, for
``--seconds`` seconds in all (and at least ``MIN_SAMPLES`` queries).  Every
answer is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of traced
executions paired with untraced ones.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shlex
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

from checks import (digest, fingerprint, invariant_errors, memory_split,
                    oracle_errors)
from spans import (Patch, Tracer, build_phases, build_targets,
                   layer_metrics, query_targets)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SF = 0.1             # ~1.06 M traversals, ~36 k trajectories
GRID = 40            # 40x40 grid network
DATA_SEED = 0        # the trajectory set is fixed; --seed picks the queries
BETA = 20
N_BUILDS = 3         # setup_s is the median of these builds
MIN_SAMPLES = 200    # leaves >= 10 timed samples beyond the p95
WARMUP_S = 0.3       # untimed queries before each timed slice
REPIN_S = 0.25       # how often the query client re-picks its vCPU
N_ORACLE = 8         # final sub-queries per run re-evaluated on DuckDB
SPANS_WRITTEN = 50   # traced queries whose spans go to the trace file
SPARK_CORES = 4
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"

_T0 = time.perf_counter()


def note(what: str) -> None:
    """Progress line on stderr, with seconds since the process started."""
    print(f"[perfbench {time.perf_counter() - _T0:7.1f}s] {what}",
          file=sys.stderr, flush=True)


@dataclass(frozen=True)
class Workload:
    query_type: str               # repro.workload.QUERY_TYPES
    partition_method: str         # pi
    partition_days: float | None  # None = FULL (W = 1)
    estimator: str | None         # CardinalityEstimator mode
    pool: int                     # distinct queries sampled per seed


WORKLOADS = {
    # sigma widening ladder, forest scans and the latency tail
    "temporal-zone": Workload("temporal", "zone", None, None, 1200),
    # Fig 11b as jobs/cardinality.py runs it: estimator, W = 11 partitions
    "temporal-zone-90d-acc": Workload("temporal", "zone", 90.0, "CSS-Acc",
                                      330),
    # not in BENCHMARK.json: the estimator under user filters (~100 ms/query)
    "user-zone-90d-acc": Workload("user", "zone", 90.0, "CSS-Acc", 200),
    # not in BENCHMARK.json: no relaxation, no estimator
    "spq-only": Workload("spq_only", "none", None, None, 4000),
}


def metric_names(trace: bool) -> list[str]:
    """The metrics BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def unit_of(name: str) -> str:
    if name == "queries_per_s":
        return "1/s"
    if name == "smape_pct":
        return "%"
    for suffix, unit in (("_ms", "ms"), ("_ms_per_query", "ms"),
                         ("_s", "s"), ("_mib", "MiB"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- Spark and the dataset ----------------------------------------------------

def start_spark():
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = SRC  # for the Python workers
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{SPARK_CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "pyspark-shell"])
    from pyspark.sql import SparkSession
    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .config("spark.sql.autoBroadcastJoinThreshold", -1)
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it runs in, and wait for it."""
    from pyspark import SparkContext
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.terminate()
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None


def _data_path() -> str:
    """Cache file of the trajectory set, keyed by the generator's source."""
    h = hashlib.sha256(f"{SF} {GRID} {DATA_SEED}".encode())
    d = os.path.join(SRC, "repro", "network")
    for name in sorted(os.listdir(d)):
        if name.endswith(".py"):
            with open(os.path.join(d, name), "rb") as f:
                h.update(f.read())
    return os.path.join(WORK, "data",
                        f"traversals-{h.hexdigest()[:16]}.parquet")


def _frame_digest(pdf) -> str:
    pdf = pdf.sort_values(["d", "seq"], kind="stable")
    h = hashlib.sha256()
    for c in ("d", "u", "seq", "e", "t", "tt"):
        h.update(pdf[c].to_numpy().tobytes())
    return h.hexdigest()


def generate(spark, net):
    """``(pandas traversals, seconds)``: the set made by the repo's
    generator, timed through cache and count."""
    from repro.network.trajgen import generate_traversals
    t0 = time.perf_counter()
    trav = generate_traversals(spark, net, sf=SF, seed=DATA_SEED).cache()
    trav.count()
    seconds = time.perf_counter() - t0
    pdf = trav.toPandas()
    trav.unpersist()
    return pdf, seconds


def load_dataset(spark, net, regenerate: bool):
    """Cached Spark and pandas traversal frames, plus ``datagen_s``.

    The first run in a checkout generates the set and stores it under
    ``.perfbench/data``; later runs load it.  ``regenerate`` (traced runs)
    generates it again to time the generator, and checks it against the
    stored copy.
    """
    import pandas as pd
    path = _data_path()
    datagen_s = None
    if regenerate or not os.path.exists(path):
        pdf, datagen_s = generate(spark, net)
        if os.path.exists(path):
            stored = pd.read_parquet(path)
            if _frame_digest(stored) != _frame_digest(pdf):
                raise RuntimeError("generated trajectories differ from "
                                   f"the stored copy {path}")
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            part = f"{path}.{os.getpid()}.tmp"
            pdf.to_parquet(part, index=False)
            os.replace(part, path)
    # spark.createDataFrame(pdf) would also do, but builds over it run
    # twice as slow as over the Parquet scan
    trav = spark.read.parquet(path).cache()
    trav.count()
    return trav, pd.read_parquet(path), datagen_s


def sample_pool(pdf, n: int, seed: int):
    """Seeded query trajectories, drawn by the rule of
    ``repro.workload.sample_queries``: trips that start at or after the
    median start time and have at least five segments.  Pandas instead of
    Spark keeps this out of the run's fixed cost.  Kept in draw order."""
    import numpy as np
    from repro.workload import QueryTrajectory
    tl = pdf.groupby("d").agg(t0=("t", "min"), n=("e", "size"))
    pool = tl[(tl["t0"] >= tl["t0"].median()) & (tl["n"] >= 5)]
    ids = np.sort(pool.index.to_numpy())
    take = np.random.default_rng(seed).choice(ids, size=min(n, len(ids)),
                                              replace=False)
    rows = pdf[pdf["d"].isin(take)].sort_values(["d", "seq"])
    by_d = {int(d): g for d, g in rows.groupby("d")}
    return [QueryTrajectory(
        d=int(d), u=int(by_d[d]["u"].iloc[0]),
        path=tuple(int(e) for e in by_d[d]["e"]),
        t0=float(by_d[d]["t"].iloc[0]),
        tts=tuple(float(x) for x in by_d[d]["tt"]))
        for d in (int(x) for x in take)]


# -- the query loop -----------------------------------------------------------

class Answers:
    """Checks every execution against the invariants and against the
    query's first answer; keeps first answers' fingerprints and estimates,
    and whole answers only for the pool indices in ``keep``."""

    def __init__(self, pool, keep):
        self.pool = pool
        self.fps: list = [None] * len(pool)
        self.estimates: list = [None] * len(pool)
        self.keep = set(keep)
        self.kept: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"query {i} (d={self.pool[i].d}): {why}")

    def check(self, i: int, res, exc) -> None:
        self.attempted += 1
        if exc is not None:
            self.fail(i, f"raised {exc!r}")
            return
        errors = invariant_errors(self.pool[i].path, res)
        fp = fingerprint(res)
        if self.fps[i] is None:
            self.fps[i] = fp
            self.estimates[i] = res.estimate
            if i in self.keep:
                self.kept[i] = res
        elif fp != self.fps[i]:
            errors.append("answer differs from this query's first answer")
        if errors:
            self.fail(i, errors[0])


def machine_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a gauge of how fast the
    (shared) machine runs right now, logged next to the results."""
    return statistics.median(_spin_ms(300_000) for _ in range(5))


def _spin_ms(n: int) -> float:
    """Time of a fixed pure-Python loop of ``n`` steps, in ms."""
    t0 = time.perf_counter()
    s = 0
    for i in range(n):
        s += i * i
    return (time.perf_counter() - t0) * 1e3


class FastestCPU:
    """Keeps the query client on the vCPU that runs fastest right now.

    On a shared host other tenants slow each vCPU down on its own, and
    which ones are slow changes every few seconds.  On a 4-vCPU VM, at
    almost every moment one vCPU ran a fixed loop at full speed while the
    others ran it 30-50 % slower.  Every ``REPIN_S`` the client times a
    short loop on each vCPU it may use and moves to the fastest.  This
    runs between queries, outside the timed region.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.due = 0.0

    def repin(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() < self.due:
            return
        speed = {}
        for c in self.cpus:
            os.sched_setaffinity(0, {c})
            speed[c] = min(_spin_ms(10_000), _spin_ms(10_000))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.due = time.perf_counter() + REPIN_S

    def release(self) -> None:
        """Back to every vCPU, for the builds and the DuckDB check."""
        os.sched_setaffinity(0, set(self.cpus))
        self.due = 0.0


CLIENT_CPU = FastestCPU()


def timed_call(run_one, i: int, answers: Answers) -> tuple[float, float]:
    """Run pool query ``i`` once; ``(latency s, seconds spent checking)``.

    The checks and the client's move to the fastest vCPU come after the
    query and count as checking time."""
    a = time.perf_counter()
    try:
        res, exc = run_one(i), None
    except Exception as e:  # counted as a failed query
        res, exc = None, e
    b = time.perf_counter()
    answers.check(i, res, exc)
    CLIENT_CPU.repin()
    return b - a, time.perf_counter() - b


def closed_loop(run_one, n_pool: int, answers: Answers, start: int, *,
                seconds: float, min_count: int):
    """Run pool queries ``start, start+1, ...`` (cyclically) one at a time
    until ``seconds`` of measured time have passed and at least
    ``min_count`` queries have run.

    Checks run between queries and are excluded from the latencies and
    from the phase's wall time.  Returns ``(latencies in s, wall s)``.
    """
    lat: list[float] = []
    checking = 0.0
    t0 = time.perf_counter()
    k = start
    while (len(lat) < min_count
           or time.perf_counter() - t0 - checking < seconds):
        latency, check_s = timed_call(run_one, k % n_pool, answers)
        lat.append(latency)
        checking += check_s
        k += 1
    return lat, time.perf_counter() - t0 - checking


def paired_loop(run_one, traced_one, patch, n_pool: int, answers: Answers,
                start: int, *, seconds: float):
    """Run each query twice in a row, untraced and traced, alternating
    which goes first, for ``seconds`` of measured time.

    Pairing makes the two sides see the same machine speed, so the
    tracing overhead is not confounded with drift in a shared machine.
    Returns ``(untraced latencies, traced latencies)``.
    """
    plain: list[float] = []
    traced: list[float] = []
    spent = 0.0
    k = start
    while spent < seconds:
        i = k % n_pool
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with patch:
                    traced.append(timed_call(traced_one, i, answers)[0])
                spent += traced[-1]
            else:
                plain.append(timed_call(run_one, i, answers)[0])
                spent += plain[-1]
        k += 1
    return plain, traced


def oracle_check(pdf, pool, answers: Answers, rng) -> int:
    """Re-evaluate one final sub-query of each kept answer on DuckDB."""
    import duckdb
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 2")
        con.register("trav", pdf)
        for i, res in sorted(answers.kept.items()):
            sub = res.subs[int(rng.integers(len(res.subs)))]
            for err in oracle_errors(con, "trav", sub, pool[i].d):
                answers.fail(i, err)
    finally:
        con.close()
    return len(answers.kept)


# -- one run ------------------------------------------------------------------

@dataclass
class Timed:
    """What the timed slices of a run collect."""

    build_s: list[float]
    lat: list[float]       # latencies of the timed queries, s
    wall: float            # measured wall time of the slices together, s
    tlat: list[float]      # traced latencies (--trace 1 only), s
    loop_ms: list[float]   # machine_loop_ms before the first and after
                           # the last slice


def build_and_serve(spark, net, trav, wl: Workload, pool, answers: Answers,
                    seconds: float, tracer: Tracer | None):
    """``N_BUILDS`` builds, each followed by one slice of the query phase.

    Build ``b`` is timed, then its index serves ``seconds / N_BUILDS`` of
    timed queries (after ``WARMUP_S`` of untimed ones) before build
    ``b + 1`` starts.  Spreading the timed queries and the builds over
    the whole run averages them over more of the shared host's slow and
    fast phases than back-to-back phases would, at no extra run time.
    The pool cursor carries over from slice to slice, so the timed
    queries cycle through the pool as in one long loop.  With a tracer,
    the build phases are recorded as spans and each slice is a paired
    untraced/traced loop.  Returns the last index, an untraced query
    function on it, and the timings.
    """
    from repro.core.cardinality import CardinalityEstimator
    from repro.core.query import trip_query
    from repro.index.build import build_index
    from repro.workload import make_spq

    spqs = [make_spq(qt, wl.query_type, beta=BETA) for qt in pool]
    build, build_patch = build_index, nullcontext()
    if tracer is not None:
        build = tracer.span("build.build_index", build_index)
        build_patch = Patch(tracer, build_targets())
        tr_query = tracer.span("query.trip_query", trip_query)
        query_patch = Patch(tracer, query_targets())
    timed = Timed([], [], 0.0, [], [])
    k = 0  # pool cursor of the timed queries
    index = None
    for b in range(N_BUILDS):
        index = None
        gc.collect()
        with build_patch:
            t0 = time.perf_counter()
            index = build(spark, net, trav, partition_days=wl.partition_days)
            timed.build_s.append(time.perf_counter() - t0)
        note(f"build {b + 1}/{N_BUILDS}: {timed.build_s[-1]:.2f}s")
        est = (CardinalityEstimator(index, wl.estimator)
               if wl.estimator else None)

        def runner(query, index=index, est=est):
            def run_one(i):
                return query(index, spqs[i],
                             partition_method=wl.partition_method,
                             split_method="regular", estimator=est,
                             exclude_d=pool[i].d)
            return run_one

        run_one = runner(trip_query)
        gc.collect()
        if b == 0:
            timed.loop_ms.append(machine_loop_ms())
        # untimed warm-up on the queries this slice times first
        closed_loop(run_one, len(pool), answers, k, seconds=WARMUP_S,
                    min_count=0)
        if tracer is None:
            lat, wall = closed_loop(run_one, len(pool), answers, k,
                                    seconds=seconds / N_BUILDS,
                                    min_count=-(-MIN_SAMPLES // N_BUILDS))
            timed.wall += wall
        else:
            tr_run = runner(tr_query)

            def traced_one(i, tr_run=tr_run):
                tracer.query += 1  # spans of one execution share its id
                return tr_run(i)
            lat, tlat = paired_loop(run_one, traced_one, query_patch,
                                    len(pool), answers, k,
                                    seconds=seconds / N_BUILDS)
            timed.tlat += tlat
            timed.wall += sum(lat)
            tracer.query = -1
        timed.lat += lat
        k += len(lat)
        CLIENT_CPU.release()
        note(f"slice {b + 1}/{N_BUILDS}: {len(lat)} timed queries")
    timed.loop_ms.append(machine_loop_ms())
    return index, run_one, timed


def measure(spark, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Dataset, query pool, builds with the timed query slices, checks.

    Only the builds need Spark; the caller stops it after this returns.
    """
    import numpy as np
    from repro.core.metrics import smape_term
    from repro.network.graph import build_grid_network

    wl = WORKLOADS[workload]
    net = build_grid_network(nx=GRID, ny=GRID, seed=7)
    trav, pdf, datagen_s = load_dataset(spark, net, regenerate=trace)
    note(f"dataset loaded ({datagen_s=})")
    pool = sample_pool(pdf, wl.pool, seed)
    note(f"{len(pool)} queries sampled")
    tracer = Tracer() if trace else None
    oracle_rng = np.random.default_rng([seed, 1])
    answers = Answers(pool, oracle_rng.choice(len(pool), N_ORACLE,
                                              replace=False))
    index, run_one, timed = build_and_serve(spark, net, trav, wl, pool,
                                            answers, seconds, tracer)
    trav.unpersist()
    lat, wall, tlat = timed.lat, timed.wall, timed.tlat
    note(f"{len(lat)} timed queries in {wall:.2f}s")
    # answer every pool query once, so the digest covers the whole pool
    for i, fp in enumerate(answers.fps):
        if fp is None:
            timed_call(run_one, i, answers)
    CLIENT_CPU.release()
    note("pool answered")
    mem = memory_split(index)

    m: dict[str, float] = {}
    lat_ms = np.asarray(lat) * 1e3
    m["setup_s"] = statistics.median(timed.build_s)
    m["query_p50_ms"] = float(np.percentile(lat_ms, 50))
    m["query_p95_ms"] = float(np.percentile(lat_ms, 95))
    m["queries_per_s"] = len(lat) / wall
    m["index_mib"] = mem.pop("index_mib")
    m["smape_pct"] = float(np.mean([smape_term(e, qt.actual)
                                    for e, qt in zip(answers.estimates, pool)
                                    if e is not None]))

    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "timed_queries": len(lat), "pool": len(pool),
            "machine_loop_ms": timed.loop_ms,
            "build_s": timed.build_s, "answer_digest": digest(answers.fps)}
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)

    if tracer is not None:
        m.update(layer_metrics(tracer, len(tlat), sum(tlat) * 1e9))
        m["trace.overhead_frac"] = 1.0 - sum(lat) / sum(tlat)
        phases = build_phases(tracer)
        m.update(sorted(phases, key=lambda p: p["build.total_s"])[
            len(phases) // 2])
        m["build.n_partitions"] = index.n_partitions
        m["build.string_len"] = sum(fm.n for fm in index.fms)
        m.update(mem)
        m["datagen_s"] = datagen_s
        tracer.write_json(
            os.path.join(out_dir, f"spans-{workload}-{seed}.json"),
            SPANS_WRITTEN, dict(info, layers=m))

    info["oracle_checked"] = oracle_check(pdf, pool, answers, oracle_rng)
    note(f"{info['oracle_checked']} sub-queries checked on DuckDB")
    m["query_fail_frac"] = answers.failed / answers.attempted
    info.update(attempted=answers.attempted, failed=answers.failed,
                errors=answers.errors, metrics=m)
    with open(os.path.join(out_dir, f"result-{workload}-{seed}.json"),
              "w") as f:
        json.dump(info, f, indent=1)
    return info


def report(info: dict, names) -> dict:
    """The contract's result object for the metrics ``names``."""
    m = info["metrics"]
    return {"correct": info["failed"] == 0,
            "attempted": info["attempted"], "failed": info["failed"],
            "metrics": {n: {"value": float(m[n]), "unit": unit_of(n)}
                        for n in names}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spark = start_spark()
    try:
        info = measure(spark, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    finally:
        stop_spark(spark)
    names = metric_names(bool(args.trace))
    for n in sorted(info["metrics"]):
        print(f"{n:40s} {info['metrics'][n]:14.6g} {unit_of(n)}",
              file=sys.stderr)
    print(f"machine_loop_ms before/after queries {info['machine_loop_ms']}",
          file=sys.stderr)
    print(f"answer_digest {info['answer_digest']}  attempted "
          f"{info['attempted']}  failed {info['failed']}", file=sys.stderr)
    for err in info["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps(report(info, names)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
