"""Spark index construction vs the pandas twin; temporal partitioning."""
import numpy as np
import pytest

from repro.core.intervals import fixed, periodic
from repro.index.build import build_index, build_index_local

pytestmark = pytest.mark.spark


@pytest.fixture(scope="module")
def both_indexes(spark, spark_dataset):
    net, trav = spark_dataset
    spark_idx = build_index(spark, net, trav)
    local_idx = build_index_local(net, trav.toPandas())
    return net, trav, spark_idx, local_idx


def _sample_paths(idx, n=25, seed=0):
    rng = np.random.default_rng(seed)
    segs = sorted(idx.forest.segments)
    out = [[int(rng.choice(segs))] for _ in range(5)]
    # multi-segment paths taken from real trajectories
    for e in segs[:n]:
        lv = idx.forest.segments[e]
        out.append([e])
    return out


def test_same_partition_count(both_indexes):
    _, _, si, li = both_indexes
    assert si.n_partitions == li.n_partitions == 1


def test_same_string_sizes(both_indexes):
    _, _, si, li = both_indexes
    assert np.array_equal(si.fms[0].span, li.fms[0].span)


def test_same_path_counts(both_indexes):
    _, _, si, li = both_indexes
    for p in _sample_paths(si):
        assert si.path_count(p) == li.path_count(p)


def test_same_forest_contents(both_indexes):
    _, _, si, li = both_indexes
    assert sorted(si.forest.segments) == sorted(li.forest.segments)
    for e in sorted(si.forest.segments)[:30]:
        a, b = si.forest.segments[e], li.forest.segments[e]
        assert np.allclose(a.t, b.t)
        assert np.allclose(a.tt, b.tt)
        assert np.allclose(a.a, b.a)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.isa, b.isa)


def test_same_user_map(both_indexes):
    _, _, si, li = both_indexes
    assert np.array_equal(si.user_of, li.user_of)


def test_same_tod_histograms(both_indexes):
    _, _, si, li = both_indexes
    assert np.array_equal(si.tod_first, li.tod_first)
    assert np.array_equal(si.tod_hist, li.tod_hist)


def test_same_query_answers(both_indexes):
    _, _, si, li = both_indexes
    for e in sorted(si.forest.segments)[:20]:
        ivl = periodic(8 * 3600 - 900, 8 * 3600 + 900)
        # summation order differs (Spark window sum vs pandas cumsum)
        assert sorted(si.get_travel_times([e], ivl).xs) == \
            pytest.approx(sorted(li.get_travel_times([e], ivl).xs))


def test_running_aggregate_a(both_indexes):
    """a = cumulative TT within the trajectory (paper sec. 4.1.3)."""
    _, trav, si, _ = both_indexes
    pdf = trav.toPandas().sort_values(["d", "seq"])
    one = pdf[pdf["d"] == pdf["d"].iloc[0]]
    e_last = int(one["e"].iloc[-1])
    lv = si.forest.segments[e_last]
    j = lv.find(int(one["d"].iloc[0]), int(one["seq"].iloc[-1]))
    assert j >= 0
    assert lv.a[j] == pytest.approx(one["tt"].sum())


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
            j = lv.find(int(d), start)
            assert j >= 0 and st <= lv.isa[j] < ed
