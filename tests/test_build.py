"""Spark-built index vs the same assembly from a pandas table; temporal
partitioning; the collected plan; input checks."""
import numpy as np
import pytest
# a local session's DataFrame: pyspark 4 defines toPandas on this class
from pyspark.sql.classic.dataframe import DataFrame

from repro.core.intervals import DAY, fixed, periodic
from repro.index.build import build_index, build_index_local
from tests.conftest import leaf_partition

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


def _records(forest):
    """``(edge, traj)``: segment and trajectory of every record, indexed by
    the leaves' ``row`` (records in (d, seq) order)."""
    edge = np.empty(len(forest.a), dtype=np.int64)
    traj = np.empty(len(forest.a), dtype=np.int64)
    for e, lv in forest.segments.items():
        edge[lv.row] = e
        traj[lv.row] = lv.d
    return edge, traj


def _sample_paths(idx, n=25, seed=0):
    """Five random single segments, then up to ``n`` real 2-6-segment
    sub-paths of random trajectories."""
    rng = np.random.default_rng(seed)
    f = idx.forest
    segs = sorted(f.segments)
    out = [[int(rng.choice(segs))] for _ in range(5)]
    edge, traj = _records(f)
    ids = np.unique(traj)
    for d in rng.choice(ids, size=min(n, len(ids)), replace=False):
        trip = edge[traj == d]
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
        assert np.array_equal(si.forest.tt, li.forest.tt), days
        assert np.array_equal(si.forest.a, li.forest.a), days
        for e in sorted(si.forest.segments):
            a, b = si.forest.segments[e], li.forest.segments[e]
            assert np.array_equal(a.t, b.t), (days, e)
            assert np.array_equal(a.d, b.d), (days, e)
            assert np.array_equal(a.row, b.row), (days, e)
            assert np.array_equal(a.isa, b.isa), (days, e)


def test_leaf_isa_names_time_partition(both_indexes):
    """At FULL and at 90 d, the partition a leaf's global ISA lies in is
    the build's time-based one: ``floor(t0 / 90 d)`` of its trajectory's
    start ``t0``, densified in time order."""
    _, trav, builds = both_indexes
    t0 = trav.toPandas().groupby("d")["t"].min()
    for days, si, li in builds:
        raw = np.zeros(len(t0), dtype=np.int64) if days is None else \
            np.floor(t0.to_numpy() / (days * DAY)).astype(np.int64)
        part = dict(zip(t0.index, np.unique(raw, return_inverse=True)[1]))
        assert len(set(part.values())) == si.n_partitions
        for idx in (si, li):
            for e, lv in idx.forest.segments.items():
                want = [part[d] for d in lv.d]
                assert leaf_partition(idx, lv.isa).tolist() == want, (days, e)


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
            assert si.get_travel_times([e], ivl).xs == \
                li.get_travel_times([e], ivl).xs, (days, e)


def _running_sums(trav):
    """``acc += tt`` along each trajectory of ``trav``, in (d, seq) order."""
    out = []
    for _, trip in trav.sort_values(["d", "seq"]).groupby("d", sort=True):
        acc = 0.0
        for x in trip["tt"]:
            acc += x
            out.append(acc)
    return out


def test_running_aggregate_a(both_indexes, small_net, small_traversals):
    """a = cumulative TT within the trajectory (paper sec. 4.1.3), summed
    left to right: equal to a Python ``acc += tt`` loop on every record,
    which pandas' grouped cumsum is not."""
    _, trav, builds = both_indexes
    pdf = trav.toPandas().sort_values(["d", "seq"])
    one = pdf[pdf["d"] == pdf["d"].iloc[0]]
    for _, si, _ in builds:
        f = si.forest
        # a trajectory's records hold consecutive rows, in seq order
        rows = np.flatnonzero(_records(f)[1] == one["d"].iloc[0])
        assert rows.tolist() == list(range(rows[0], rows[0] + len(one)))
        assert f.tt[rows].tolist() == one["tt"].tolist()
        assert f.a[rows].tolist() == _running_sums(one)
    trav = small_traversals.sort_values(["d", "seq"])
    want = _running_sums(trav)
    f = build_index_local(small_net, small_traversals).forest
    assert f.tt.tolist() == trav["tt"].tolist()
    assert f.a.tolist() == want
    assert (trav.groupby("d")["tt"].cumsum().to_numpy() != want).any()


def test_collected_plan_has_no_shuffle(spark, spark_dataset, monkeypatch):
    """The build collects the traversal columns as they are: partitions,
    string offsets and the running sum ``a`` are the driver's, so above
    the scan of the cached traversals the plan has no window, exchange,
    sort, join or aggregate."""
    net, trav = spark_dataset
    plans, collect = [], DataFrame.toPandas

    def spy(df):
        plans.append(df._jdf.queryExecution().executedPlan().toString())
        return collect(df)

    monkeypatch.setattr(DataFrame, "toPandas", spy)
    build_index(spark, net, trav, partition_days=90)
    plan, = plans
    # the cached generator plan beneath the scan has its own exchange
    above = plan[:plan.index("InMemoryTableScan")]
    for op in ("Window", "Exchange", "Sort", "Join", "Aggregate"):
        assert op not in above, plan


@pytest.mark.parametrize("seq", [[0, 1, 3], [0, 1, 1]],
                         ids=["gap", "duplicate"])
def test_non_dense_seq_is_rejected(paper_net, paper_traversals, seq):
    """The layout puts record ``seq`` at ``offset[d] + seq``: a gap would
    overwrite the trajectory's ``$`` and a duplicate a symbol, so either
    is an error that names the trajectory."""
    trav = paper_traversals.copy()
    at = np.flatnonzero(trav["d"] == 2)
    trav.loc[at, "seq"] = seq
    with pytest.raises(ValueError, match="trajectory 2"):
        build_index_local(paper_net, trav)


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
    span = 180 * DAY
    for e in sorted(part.forest.segments)[:10]:
        lv = part.forest.segments[e]
        # a leaf's partition is determined by its *trajectory's* start
        # time, which is never after the leaf's own entry time
        assert np.all(leaf_partition(part, lv.isa) * span <= lv.t + 1e-6)


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
    traj = _records(idx.forest)[1]
    rng = np.random.default_rng(4)
    for d in rng.choice(pdf["d"].unique(), 8, replace=False):
        path = [int(e) for e in pdf[pdf["d"] == d]["e"]]
        for start in (0, len(path) // 2):
            tail = path[start:start + 4]
            st, ed = idx.isa_ranges(tail)[0]
            e0 = tail[0]
            lv = idx.forest.segments[e0]
            row = np.flatnonzero(traj == d)[0] + start
            j, = np.flatnonzero(lv.row == row)
            assert lv.d[j] == d
            assert st <= lv.isa[j] < ed
