"""Spark index construction vs the pandas twin; temporal partitioning."""
import numpy as np
import pytest
# a local session's DataFrame: pyspark 4 defines toPandas on this class
from pyspark.sql.classic.dataframe import DataFrame

from repro.core.intervals import fixed, periodic
from repro.index.build import build_index, build_index_local

pytestmark = pytest.mark.spark


@pytest.fixture(scope="module")
def both_indexes(spark, spark_dataset):
    """``(net, trav, builds)``: ``builds`` holds ``(partition_days,
    spark_idx, local_idx)`` at FULL and at 90-day partitions (W > 1), and
    every Spark-vs-pandas check below runs over each."""
    net, trav = spark_dataset
    pdf = trav.toPandas()
    builds = [(days, build_index(spark, net, trav, partition_days=days),
               build_index_local(net, pdf, partition_days=days))
              for days in (None, 90)]
    return net, trav, builds


def _sample_paths(idx, n=25, seed=0):
    """Five random single segments, then up to ``n`` real 2-6-segment
    sub-paths of random trajectories."""
    rng = np.random.default_rng(seed)
    f = idx.forest
    segs = sorted(f.segments)
    out = [[int(rng.choice(segs))] for _ in range(5)]
    # record seq of trajectory d is row first[d] + seq in trajectory order
    edge = np.empty(int(f.first[-1]), dtype=np.int64)
    for e, lv in f.segments.items():
        edge[f.first[lv.d] + lv.seq] = e
    n_trips = len(f.first) - 1
    for d in rng.choice(n_trips, size=min(n, n_trips), replace=False):
        trip = edge[f.first[d]:f.first[d + 1]]
        k = int(rng.integers(2, 7))
        if len(trip) >= k:
            s = int(rng.integers(len(trip) - k + 1))
            out.append(trip[s:s + k].tolist())
    assert sum(len(p) > 1 for p in out) > n // 2
    return out


def test_same_partition_count(both_indexes):
    for days, si, li in both_indexes[2]:
        assert si.n_partitions == li.n_partitions, days
        assert (si.n_partitions > 1) == (days is not None), days


def test_same_string_sizes(both_indexes):
    for days, si, li in both_indexes[2]:
        assert np.array_equal(si.fms[0].span, li.fms[0].span), days


def test_same_path_counts(both_indexes):
    for days, si, li in both_indexes[2]:
        for p in _sample_paths(si):
            assert si.path_count(p) == li.path_count(p), (days, p)


def test_same_forest_contents(both_indexes):
    for days, si, li in both_indexes[2]:
        assert sorted(si.forest.segments) == sorted(li.forest.segments)
        assert np.array_equal(si.forest.first, li.forest.first)
        assert np.allclose(si.forest.tt, li.forest.tt)
        assert np.allclose(si.forest.a, li.forest.a)
        for e in sorted(si.forest.segments)[:30]:
            a, b = si.forest.segments[e], li.forest.segments[e]
            assert np.allclose(a.t, b.t)
            assert np.array_equal(a.d, b.d), (days, e)
            assert np.array_equal(a.seq, b.seq), (days, e)
            assert np.array_equal(a.isa, b.isa), (days, e)
            assert np.array_equal(a.w, b.w), (days, e)


def test_same_user_map(both_indexes):
    for days, si, li in both_indexes[2]:
        assert np.array_equal(si.user_of, li.user_of), days


def test_same_tod_histograms(both_indexes):
    for days, si, li in both_indexes[2]:
        assert np.array_equal(si.tod_first, li.tod_first), days
        assert np.array_equal(si.tod_hist, li.tod_hist), days


def test_same_query_answers(both_indexes):
    ivl = periodic(8 * 3600 - 900, 8 * 3600 + 900)
    for days, si, li in both_indexes[2]:
        for e in sorted(si.forest.segments)[:20]:
            # summation order differs (Spark window sum vs pandas cumsum)
            assert sorted(si.get_travel_times([e], ivl).xs) == \
                pytest.approx(sorted(li.get_travel_times([e], ivl).xs))


def test_running_aggregate_a(both_indexes):
    """a = cumulative TT within the trajectory (paper sec. 4.1.3)."""
    _, trav, builds = both_indexes
    pdf = trav.toPandas().sort_values(["d", "seq"])
    one = pdf[pdf["d"] == pdf["d"].iloc[0]]
    for _, si, _ in builds:
        f = si.forest
        rows = f.first[int(one["d"].iloc[0])] + one["seq"].to_numpy()
        assert f.tt[rows].tolist() == one["tt"].tolist()
        assert f.a[rows] == pytest.approx(one["tt"].cumsum().to_numpy())
        assert f.a[rows[-1]] == pytest.approx(one["tt"].sum())


def test_dataflow_is_one_window_stage(spark, spark_dataset, monkeypatch):
    """The build collects one Window over the traversals: partitions and
    string offsets are the driver's, so the plan has no join and no
    aggregate."""
    net, trav = spark_dataset
    plans, collect = [], DataFrame.toPandas

    def spy(df):
        plans.append(df._jdf.queryExecution().executedPlan().toString())
        return collect(df)

    monkeypatch.setattr(DataFrame, "toPandas", spy)
    build_index(spark, net, trav, partition_days=90)
    plan, = plans
    assert plan.count("Window [") == 1, plan
    assert "Join" not in plan and "Aggregate" not in plan, plan


def test_temporal_partitioning_counts_sum(spark, spark_dataset):
    net, trav = spark_dataset
    full = build_index(spark, net, trav)
    part = build_index(spark, net, trav, partition_days=180)
    assert part.n_partitions > 1
    for p in _sample_paths(full, n=15):
        assert part.path_count(p) == full.path_count(p)


def test_temporal_partitioning_same_answers(spark, spark_dataset):
    net, trav = spark_dataset
    full = build_index(spark, net, trav)
    part = build_index(spark, net, trav, partition_days=90)
    for e in sorted(full.forest.segments)[:15]:
        ivl = fixed(0, full.tmax)
        assert sorted(full.get_travel_times([e], ivl).xs) == \
            pytest.approx(sorted(part.get_travel_times([e], ivl).xs))


def test_partition_ids_follow_time(spark, spark_dataset):
    net, trav = spark_dataset
    part = build_index(spark, net, trav, partition_days=180)
    from repro.core.intervals import DAY
    span = 180 * DAY
    for e in sorted(part.forest.segments)[:10]:
        lv = part.forest.segments[e]
        # a leaf's partition is determined by its *trajectory's* start
        # time, which is never after the leaf's own entry time
        assert np.all(lv.w * span <= lv.t + 1e-6)


def test_bt_backend_equivalent_answers(spark, spark_dataset):
    net, trav = spark_dataset
    css = build_index(spark, net, trav, backend="css")
    bt = build_index(spark, net, trav, backend="bt")
    ivl = periodic(8 * 3600 - 900, 8 * 3600 + 900)
    for e in sorted(css.forest.segments)[:20]:
        assert sorted(css.get_travel_times([e], ivl).xs) == \
            sorted(bt.get_travel_times([e], ivl).xs)


def test_bt_forest_larger_than_css(spark, spark_dataset):
    net, trav = spark_dataset
    css = build_index(spark, net, trav, backend="css")
    bt = build_index(spark, net, trav, backend="bt")
    assert bt.memory_report()["Forest"] > css.memory_report()["Forest"]


def test_isa_suffix_property(spark, small_net, small_traversals):
    """Every traversal's ISA lies inside the ISA range of its own suffix path."""
    sub = small_traversals[small_traversals["d"] < 30]
    idx = build_index_local(small_net, sub)
    pdf = sub.sort_values(["d", "seq"])
    rng = np.random.default_rng(4)
    for d in rng.choice(pdf["d"].unique(), 8, replace=False):
        path = [int(e) for e in pdf[pdf["d"] == d]["e"]]
        for start in (0, len(path) // 2):
            tail = path[start:start + 4]
            st, ed = idx.isa_ranges(tail)[0]
            e0 = tail[0]
            lv = idx.forest.segments[e0]
            j, = np.flatnonzero((lv.d == d) & (lv.seq == start))
            assert st <= lv.isa[j] < ed
