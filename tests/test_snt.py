"""SNTIndex: Procedure 5 semantics, estimator support, memory accounting."""
import numpy as np
import pytest

from repro.core.intervals import DAY, fixed, periodic
from tests.conftest import A, B, C, E, U1


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
    assert paper_index.fms[0].isa_range(path) == (0, 0)
    assert paper_index.path_count(path) == 0


def test_isa_ranges_shape(paper_index):
    r = paper_index.isa_ranges([A])
    assert r.shape == (1, 2) and tuple(r[0]) == (4, 8)


def test_memory_report_components(paper_index):
    rep = paper_index.memory_report()
    assert set(rep) == {"C", "WT", "user", "Forest", "ToD"}
    assert all(v > 0 for v in rep.values())


def test_served_fmindex_holds_c_occ_n(paper_index):
    # the build reads the transient isa and deletes it
    assert all(set(vars(fm)) == {"C", "occ", "n"} for fm in paper_index.fms)


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
    # one histogram per (partition, segment) pair; four A-traversals
    assert set(paper_index.tod_hist) == {(0, e) for e in range(1, 7)}
    assert paper_index.tod_hist[(0, A)].sum() == 4
    assert paper_index.memory_report()["ToD"] == 6 * 144 * 8


def test_tod_store_matches_leaf_loop(small_net, small_traversals):
    """The vectorised store equals bucket counting leaf by leaf."""
    from repro.index.build import build_index_local
    idx = build_index_local(small_net, small_traversals, partition_days=180)
    assert idx.n_partitions > 1
    ref = {}
    for e, lv in idx.forest.segments.items():
        for t, w in zip(lv.t, lv.w):
            h = ref.setdefault((int(w), e), np.zeros(144))
            h[min(int(t % DAY // 600), 143)] += 1
    assert set(idx.tod_hist) == set(ref)
    for k, h in ref.items():
        assert np.array_equal(idx.tod_hist[k], h)


def test_tod_selectivity_full_day_is_one(paper_index):
    assert paper_index.tod_selectivity(A, periodic(0, DAY)) == \
        pytest.approx(1.0)


def test_tod_selectivity_concentrated(paper_index):
    # all example timestamps are within the first ToD bucket
    sel = paper_index.tod_selectivity(A, periodic(0, 600))
    assert sel == pytest.approx(1.0)
    sel = paper_index.tod_selectivity(A, periodic(40000, 40600))
    assert sel == 0.0


def test_tod_selectivity_unknown_segment_uses_uniform(paper_index):
    sel = paper_index.tod_selectivity(999, periodic(0, DAY / 4))
    assert sel == pytest.approx(0.25)


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
