"""Differential fuzz: the SNT-index against the SQL reference on DuckDB.

Seeded random strict path queries over real sub-paths of the small
generated dataset (no Spark), at FULL and at 30-day partitions
(W = 32): periodic windows around the trip start, windows that wrap
midnight or span 24 h or more, fixed windows, user filters (absent users
included), ``exclude_d``, time frames, ``beta`` and never-traversed
single segments.  With ``beta=None`` the index returns the reference's
multiset of travel times.  With ``beta`` it returns the first ``beta``
matches in scan order (time of day for periodic windows, entry time for
fixed ones; see :mod:`repro.temporal.forest`), which the reference
reproduces by sorting on the same key; a periodic query with fewer than
``beta`` matches returns nothing.  A speed-limit fallback must find no
reference row.

A smaller Spark leg draws the same kind of queries over the SF 0.01 Spark
dataset: Spark SQL against DuckDB, and a Spark-built index at 90-day
partitions against the Spark SQL result.
"""
import duckdb
import numpy as np
import pytest

from repro.core.intervals import DAY, fixed, periodic
from repro.index.build import build_index, build_index_local
from repro.oracle import assert_equivalent
from repro.sparkspq import run_spark_spq, spq_sql

N_QUERIES = 300
N_SPARK_QUERIES = 20  # each Spark SQL query takes about a second
HOUR = 3600.0


@pytest.fixture(scope="module")
def con(small_traversals):
    c = duckdb.connect()
    c.register("trav", small_traversals)
    yield c
    c.close()


def _random_query(rng, trips, n_edges, absent_user):
    """``(path, interval, user, exclude_d, timeframe, beta)``."""
    d, u, es, ts = trips[int(rng.integers(len(trips)))]
    s = int(rng.integers(len(es)))
    path = [int(e) for e in es[s:s + int(rng.integers(1, 7))]]
    if rng.random() < 0.05:
        path = [int(rng.integers(1, n_edges + 1))]
    t0 = float(ts[s])
    tod = t0 % DAY
    kind = rng.integers(4)
    if kind == 0:    # around the trip start, may wrap midnight
        half = rng.uniform(300, 3 * HOUR)
        ivl = periodic(tod - half, tod + half)
    elif kind == 1:  # wraps midnight: evening to morning, or all day
        # but a gap around the trip start; bounds shifted by whole days
        if rng.random() < 0.5:
            lo, hi = rng.uniform(18, 24) * HOUR, rng.uniform(24.5, 32) * HOUR
        else:
            lo = tod + rng.uniform(300, 4 * HOUR)
            hi = tod + DAY - rng.uniform(300, 4 * HOUR)
        k = int(rng.integers(-1, 2)) * DAY
        ivl = periodic(lo + k, hi + k)
    elif kind == 2:  # 24 h or more
        lo = tod - rng.uniform(0, 12 * HOUR)
        ivl = periodic(lo, lo + DAY * rng.uniform(1.0, 1.5))
    else:
        span = rng.uniform(1, 200) * DAY
        ivl = fixed(t0 - span, t0 + span)
    r = rng.random()
    user = u if r < 0.25 else absent_user if r < 0.3 else None
    exclude_d = d if rng.random() < 0.2 else None
    timeframe = None
    if rng.random() < 0.2:
        timeframe = (t0 - rng.uniform(0, 400) * DAY,
                     t0 + rng.uniform(0, 400) * DAY)
    beta = None if rng.random() < 0.7 else int(rng.integers(1, 8))
    return path, ivl, user, exclude_d, timeframe, beta


def _expected(ref, ivl, beta):
    """The reference's travel times the index must return."""
    x, t = ref["x"].astype(np.float64), ref["t"].astype(np.float64)
    if beta is None:
        return x
    if ivl.periodic:
        if len(x) < beta:
            return x[:0]
        key = (t % DAY - ivl.tod_ranges()[0][0]) % DAY
    else:
        key = t
    return x[np.lexsort((t, key))][:beta]


def _trips(traversals):
    """``[(d, u, edges, entry times)]`` per trajectory, and an absent user."""
    trav = traversals.sort_values(["d", "seq"])
    trips = [(int(d), int(g["u"].iloc[0]), g["e"].to_numpy(),
              g["t"].to_numpy()) for d, g in trav.groupby("d")]
    return trips, int(trav["u"].max()) + 1


@pytest.mark.parametrize("partition_days", [None, 30])
def test_index_matches_duckdb(small_net, small_traversals, con,
                              partition_days):
    idx = build_index_local(small_net, small_traversals,
                            partition_days=partition_days)
    assert idx.n_partitions == (1 if partition_days is None else 32)
    trips, absent_user = _trips(small_traversals)
    rng = np.random.default_rng(2019)
    nonempty = 0
    for _ in range(N_QUERIES):
        path, ivl, user, exclude_d, tf, beta = _random_query(
            rng, trips, small_net.n_edges, absent_user)
        got = idx.get_travel_times(path, ivl, user=user, beta=beta,
                                   exclude_d=exclude_d, timeframe=tf)
        ref = con.execute(
            spq_sql("trav", path, ivl, user, exclude_d, tf)).fetchnumpy()
        where = (path, ivl, user, exclude_d, tf, beta)
        if got.fallback:
            assert len(ref["x"]) == 0, where
            continue
        want = np.sort(_expected(ref, ivl, beta))
        assert np.sort(got.xs) == pytest.approx(want, rel=1e-9, abs=1e-6), \
            where
        nonempty += len(want) > 0
    assert nonempty > N_QUERIES // 2


@pytest.mark.spark
def test_spark_sql_matches_duckdb_and_index(spark, spark_dataset):
    net, trav = spark_dataset
    pdf = trav.toPandas()
    idx = build_index(spark, net, trav, partition_days=90)
    assert idx.n_partitions > 1
    trips, absent_user = _trips(pdf)
    rng = np.random.default_rng(2020)
    nonempty = 0
    for _ in range(N_SPARK_QUERIES):
        path, ivl, user, exclude_d, tf, beta = _random_query(
            rng, trips, net.n_edges, absent_user)
        where = (path, ivl, user, exclude_d, tf, beta)
        rows = assert_equivalent(
            run_spark_spq(spark, trav, path, ivl, user, exclude_d, tf),
            spq_sql("trav", path, ivl, user, exclude_d, tf), trav=pdf)
        ref = {c: v.to_numpy() for c, v in rows.items()}
        got = idx.get_travel_times(path, ivl, user=user, beta=beta,
                                   exclude_d=exclude_d, timeframe=tf)
        if got.fallback:
            assert len(ref["x"]) == 0, where
            continue
        want = np.sort(_expected(ref, ivl, beta))
        assert np.sort(got.xs) == pytest.approx(want, rel=1e-9, abs=1e-6), \
            where
        nonempty += len(want) > 0
    assert nonempty > N_SPARK_QUERIES // 2
