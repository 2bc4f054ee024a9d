"""SNTIndex: Procedure 5 semantics, estimator support, memory accounting."""
import numpy as np
import pytest

from repro.core.intervals import DAY, fixed, periodic
from tests.conftest import A, B, C, E, U1, leaf_partition


def test_periodic_under_beta_returns_empty(paper_index):
    # only 2 trajectories traverse <A,B,E>; periodic beta=3 must reject
    ivl = periodic(0, 900)
    r = paper_index.get_travel_times([A, B, E], ivl, beta=3)
    assert r.xs == [] and not r.fallback


def test_fixed_returns_despite_under_beta(paper_index):
    r = paper_index.get_travel_times([A, B, E], fixed(0, 15), beta=99)
    assert sorted(r.xs) == [10.0, 11.0]


def test_beta_truncates(paper_index):
    r = paper_index.get_travel_times([A], fixed(0, 15), beta=2)
    assert len(r.xs) == 2


def test_exclude_d(paper_index):
    r = paper_index.get_travel_times([A, B, E], fixed(0, 15), exclude_d=0)
    assert r.xs == [10.0]


def test_empty_isa_range_multi_segment(paper_index):
    r = paper_index.get_travel_times([E, A], fixed(0, 100))
    assert r.xs == [] and not r.fallback


def test_empty_isa_single_segment_falls_back(paper_net, paper_traversals):
    # a network with one extra never-traversed segment
    from repro.index.build import build_index_local
    from repro.network.graph import make_network
    from tests.conftest import PAPER_SPECS
    net = make_network(PAPER_SPECS + [("residential", "city", 30.0, 60.0)])
    idx = build_index_local(net, paper_traversals)
    r = idx.get_travel_times([7], fixed(0, 100))
    assert r.fallback
    assert r.xs == [pytest.approx(3.6 * 60.0 / 30.0)]


@pytest.mark.parametrize("path", [[-1], [0], [7], [A, 0], [99, B], [A, -3]])
def test_non_edge_symbols_match_nothing(paper_index, path):
    # edge ids are 1..6; 0 is the $ terminator
    assert paper_index.isa_ranges(path).tolist() == [[0, 0]]
    assert paper_index.path_count(path) == 0


@pytest.mark.parametrize("path,bad", [([-1], -1), ([0], 0), ([7], 7),
                                      ([A, 99], 99), ([0, B], 0)])
def test_unknown_edge_ids_raise(paper_index, path, bad):
    # no speed-limit estimate is read through a wrapped or $ row
    with pytest.raises(ValueError, match=f"unknown edge id {bad}"):
        paper_index.get_travel_times(path, fixed(0, 100))


def test_trip_query_rejects_unknown_edge_id(paper_index):
    from repro.core.query import trip_query
    from repro.core.spq import SPQ
    q = SPQ((A, B, 7), periodic(0, 900), beta=1)
    with pytest.raises(ValueError, match="unknown edge id 7"):
        trip_query(paper_index, q, partition_method="none",
                   split_method="regular")


def test_isa_ranges_shape(paper_index):
    r = paper_index.isa_ranges([A])
    assert r.shape == (1, 2) and tuple(r[0]) == (4, 8)


def test_memory_report_components(paper_index):
    rep = paper_index.memory_report()
    assert set(rep) == {"C", "WT", "user", "Forest", "ToD"}
    assert all(v > 0 for v in rep.values())


def test_served_fmindex_holds_search_tables(paper_index):
    # one FM-index for all partitions; the build reads the transient isa
    # and deletes it
    (fm,) = paper_index.fms
    assert set(vars(fm)) == {"B", "D", "occ", "span", "n"}


def _array_bytes(root, skip) -> int:
    """Bytes of every numpy buffer reachable from ``root``, each counted
    once (views resolve to the array owning their memory)."""
    seen = {id(o) for o in skip}
    owners: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, float, str, np.generic)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in owners:
                owners.add(id(base))
                total += base.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return total


def test_memory_report_counts_every_array(small_index):
    walked = _array_bytes(small_index, skip=(small_index.net,))
    reported = sum(small_index.memory_report().values())
    assert reported == walked


def test_tod_store_per_partition(paper_index):
    # one prefix-sum row per (segment, partition) pair; four A-traversals
    assert paper_index.tod_hist.shape == (6, 144)
    assert paper_index.tod_first.tolist() == [0, 0, 1, 2, 3, 4, 5, 6]
    assert paper_index.tod_hist[paper_index.tod_first[A], -1] == 4
    assert paper_index.memory_report()["ToD"] == 6 * 144 * 8 + 8 * 8


def test_tod_store_matches_leaf_loop(small_net, small_traversals):
    """The vectorised store equals bucket counting leaf by leaf."""
    from repro.index.build import build_index_local
    idx = build_index_local(small_net, small_traversals, partition_days=180)
    assert idx.n_partitions > 1
    ref = {}
    for e, lv in idx.forest.segments.items():
        for t, w in zip(lv.t, leaf_partition(idx, lv.isa)):
            h = ref.setdefault((int(w), e), np.zeros(144))
            h[min(int(t % DAY // 600), 143)] += 1
    first = idx.tod_first
    assert len(first) == idx.net.n_edges + 2
    assert first[-1] == len(idx.tod_hist) == len(ref)
    for e in range(idx.net.n_edges + 1):
        rows = np.diff(idx.tod_hist[first[e]:first[e + 1]], axis=1,
                       prepend=0)
        ws = sorted(w for w, e2 in ref if e2 == e)  # rows in (e, w) order
        assert len(rows) == len(ws)
        for row, w in zip(rows, ws):
            assert np.array_equal(row, ref[(w, e)])


def _tod_selectivity_by_partition(idx, e, interval):
    """Eq. 2 walking one bucket-count histogram per partition; the two
    ranges of a window just short of a day may share a bucket, so the
    sum is capped at 1, and an empty or inverted range counts nothing."""
    tot = sel = 0.0
    lv = idx.forest.get(e)
    part = None if lv is None else leaf_partition(idx, lv.isa)
    for w in range(idx.n_partitions):
        if lv is None or not (part == w).any():
            continue
        h = np.zeros(144)
        np.add.at(h, np.minimum(lv.t[part == w] % DAY // 600, 143)
                  .astype(int), 1)
        tot += h.sum()
        for lo, hi in interval.tod_ranges():
            if hi > lo:
                sel += h[int(lo // 600):min(144, int(np.ceil(hi / 600)))].sum()
    return interval.size / DAY if tot == 0 else min(1.0, float(sel / tot))


def test_tod_selectivity_equals_partition_walk(small_net, small_traversals):
    from repro.index.build import build_index_local
    idx = build_index_local(small_net, small_traversals, partition_days=30)
    assert idx.n_partitions > 2
    rng = np.random.default_rng(5)
    segs = sorted(idx.forest.segments)
    for _ in range(300):
        e = int(rng.choice(segs))
        # half the windows start one bucket after an entry of e, so the
        # prefix sum before the window's first bucket is not zero
        ts = (float(rng.choice(idx.forest.get(e).t)) % DAY + 600
              if rng.random() < 0.5 else float(rng.uniform(0, DAY)))
        size = float(rng.choice([0, 300, 600, 3600, 20000, DAY - 1, DAY]))
        ivl = periodic(ts, ts + size)
        assert idx.tod_selectivities(e, [ivl])[0] == \
            _tod_selectivity_by_partition(idx, e, ivl)


def test_tod_selectivity_full_day_is_one(paper_index):
    assert paper_index.tod_selectivities(A, [periodic(0, DAY)])[0] == \
        pytest.approx(1.0)


def test_tod_selectivity_concentrated(paper_index):
    # all example timestamps are within the first ToD bucket
    sel = paper_index.tod_selectivities(A, [periodic(0, 600)])[0]
    assert sel == pytest.approx(1.0)
    sel = paper_index.tod_selectivities(A, [periodic(40000, 40600)])[0]
    assert sel == 0.0
    # the second bucket: the first bucket's prefix sum is subtracted
    assert paper_index.tod_selectivities(A, [periodic(600, 1200)])[0] == 0.0


def test_tod_selectivity_unknown_segment_uses_uniform(paper_index):
    sel = paper_index.tod_selectivities(999, [periodic(0, DAY / 4)])[0]
    assert sel == pytest.approx(0.25)


@pytest.mark.parametrize("e", [-2, -1, 0, 7])
def test_tod_selectivity_non_edge_ids_use_uniform(paper_index, e):
    # -2 must not wrap to the last segment's rows; 0 is $; |Σ| = 7
    sel = paper_index.tod_selectivities(e, [periodic(0, DAY / 4)])[0]
    assert sel == 0.25


def test_segment_time_bounds(paper_index):
    assert paper_index.segment_time_bounds(A) == (0.0, 6.0)
    assert paper_index.segment_time_bounds(999) is None


def test_timeframe_count(paper_index):
    assert paper_index.timeframe_count(A, 0, 5) == 3  # t = 0, 2, 4
    assert paper_index.timeframe_count(999, 0, 5) is None


def test_tod_store_bytes_scales_with_bucket_width(paper_index):
    b1 = paper_index.tod_store_bytes(60.0)
    b10 = paper_index.tod_store_bytes(600.0)
    assert b1 > b10 > 0
    assert b1 / b10 == pytest.approx(10.0, rel=0.2)


def test_tmax_covers_data(paper_index):
    assert paper_index.tmax >= 12.0


def test_timeframe_filters_results(paper_index):
    r = paper_index.get_travel_times([A], fixed(0, 15), timeframe=(3.0, 5.0))
    assert r.xs == [3.0]  # only tr2 entered A at t=4
