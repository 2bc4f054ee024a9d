"""tripQuery orchestration (Procedure 6) on the paper example + small data."""
import numpy as np
import pytest

from repro.core.cardinality import CardinalityEstimator
from repro.core.intervals import DAY, all_time, fixed, periodic
from repro.core.partitioning import PARTITION_METHODS
from repro.core.query import trip_query
from repro.core.spq import SPQ
from tests.conftest import A, B, C, D, E, U1


def test_trivially_satisfied_query(paper_index):
    # fixed interval, beta met on the whole path: one sub-query, no splits
    spq = SPQ(path=(A, B, E), interval=fixed(0, 15), beta=2)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="regular")
    assert len(res.subs) == 1
    assert sorted(res.subs[0].xs) == [10.0, 11.0]
    assert res.estimate == pytest.approx(10.5)
    assert res.n_relaxations == 0


def test_partitioned_query_convolves(paper_index):
    spq = SPQ(path=(A, B, E), interval=fixed(0, 15), beta=1)
    res = trip_query(paper_index, spq, partition_method="p1",
                     split_method="regular", hist_h=1.0)
    assert len(res.subs) == 3
    assert res.hist.total > 0
    # sum of sub-means approximates the path duration
    assert 8 <= res.estimate <= 14


def test_relaxation_splits_on_insufficient_beta(paper_index):
    # <A,B,E> has 2 strict traversals < beta=3, and so has <B,E>, so the
    # greedy must split all the way to single segments (each has >= 3)
    tod = periodic(0 - 450, 0 + 450)
    spq = SPQ(path=(A, B, E), interval=tod, beta=3)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="regular", hist_h=1.0)
    assert res.n_relaxations > 0
    assert [s.spq.path for s in res.subs] == [(A,), (B,), (E,)]
    assert all(len(s.xs) >= 3 for s in res.subs)
    assert res.hist.total > 0


def test_avg_subpath_len(paper_index):
    spq = SPQ(path=(A, B, E), interval=fixed(0, 15), beta=1)
    res = trip_query(paper_index, spq, partition_method="p1",
                     split_method="regular")
    assert res.avg_subpath_len == 1.0


def test_sub_results_cover_whole_path(paper_index):
    spq = SPQ(path=(A, C, D, E), interval=periodic(-450, 450), beta=2)
    res = trip_query(paper_index, spq, partition_method="cat",
                     split_method="regular")
    covered = sorted((s.spq.lo, s.spq.hi) for s in res.subs)
    # contiguous, non-overlapping cover of [0, 4)
    assert covered[0][0] == 0 and covered[-1][1] == 4
    for (l1, h1), (l2, h2) in zip(covered, covered[1:]):
        assert h1 == l2


def test_impossible_beta_terminates_with_fallbacks(paper_index):
    # beta far above the data size: every sub-query relaxes to the fixed
    # fallback, single segments return data or estimateTT
    spq = SPQ(path=(A, C, D, E), interval=periodic(-450, 450), beta=99)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="regular")
    assert res.subs  # terminated with results
    assert all(len(s.spq.path) == 1 for s in res.subs)
    assert res.estimate > 0


def test_user_filter_dropped_when_needed(paper_index):
    # user U1 never drove <C,D>; relaxation must drop the filter
    spq = SPQ(path=(C, D), interval=periodic(7 * 3600, 7 * 3600 + 900),
              user=U1, beta=1)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="regular")
    assert res.estimate > 0


def test_shift_and_enlarge_applied_to_later_subqueries(paper_index):
    spq = SPQ(path=(A, B, E), interval=periodic(-450, 450), beta=1)
    res = trip_query(paper_index, spq, partition_method="p1",
                     split_method="regular")
    assert len(res.subs) == 3
    first, second = res.subs[0].spq, res.subs[1].spq
    # second window is shifted right and no smaller
    assert second.interval.ts > first.interval.ts
    assert second.interval.size >= first.interval.size - 1e-9


def test_estimator_skips_scans(paper_index):
    tod = periodic(-450, 450)
    spq = SPQ(path=(A, B, E), interval=tod, beta=3)
    plain = trip_query(paper_index, spq, partition_method="none",
                       split_method="regular")
    est = CardinalityEstimator(paper_index, "ISA")
    with_est = trip_query(paper_index, spq, partition_method="none",
                          split_method="regular", estimator=est)
    assert with_est.n_estimates > 0
    assert with_est.n_index_scans <= plain.n_index_scans


def test_exclude_d(paper_index):
    spq = SPQ(path=(A, B, E), interval=fixed(0, 15), beta=2)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="regular", exclude_d=0)
    assert res.subs[0].xs == [10.0]


def test_longest_prefix_split(paper_index):
    spq = SPQ(path=(A, C, D, E), interval=periodic(-450, 450), beta=1)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="longest_prefix")
    assert res.estimate > 0
    covered = sorted((s.spq.lo, s.spq.hi) for s in res.subs)
    assert covered[0][0] == 0 and covered[-1][1] == 4


@pytest.mark.parametrize("pm", ["p1", "p2", "p3", "cat", "zone", "zonecat",
                                "none"])
@pytest.mark.parametrize("sm", ["regular", "longest_prefix"])
def test_grid_terminates_on_generated_data(small_index, pm, sm):
    seg = small_index
    # take a real route path from the forest data
    segs = sorted(seg.forest.segments)
    d0 = int(seg.forest.segments[segs[0]].d[0])
    path, t0 = _route(seg, d0)
    spq = SPQ(path=path, interval=periodic(t0 % DAY - 450, t0 % DAY + 450),
              beta=10)
    res = trip_query(seg, spq, partition_method=pm, split_method=sm,
                     exclude_d=d0)
    assert res.subs and res.estimate > 0
    covered = sorted((s.spq.lo, s.spq.hi) for s in res.subs)
    assert covered[0][0] == 0 and covered[-1][1] == len(path)


def test_nan_window_bounds_rejected(paper_index):
    nan = float("nan")
    for ivl in (periodic(nan, nan), periodic(0, nan), fixed(nan, 15)):
        with pytest.raises(ValueError, match="NaN"):
            SPQ(path=(A, B, E), interval=ivl, beta=2)
    # an unbounded fixed window is valid
    spq = SPQ(path=(A, B, E), interval=all_time(), beta=2)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="regular")
    assert sorted(res.subs[0].xs) == [10.0, 11.0]


@pytest.mark.parametrize("ivl", [periodic(DAY - 300, DAY + 300),
                                 periodic(-300, 300),
                                 periodic(5, 5 + DAY),
                                 periodic(-DAY, 2 * DAY)])
def test_midnight_and_day_spanning_windows(paper_index, ivl):
    """The example trips start just after midnight (0-6 s): a window
    wrapping midnight or spanning 24 h or more finds both <A, B, E>
    trips, 11 s and 10 s, in its first rung."""
    spq = SPQ(path=(A, B, E), interval=ivl, beta=2)
    res = trip_query(paper_index, spq, partition_method="none",
                     split_method="regular")
    assert [(s.spq.interval, sorted(s.xs), s.fallback)
            for s in res.subs] == [(ivl, [10.0, 11.0], False)]
    assert (res.n_index_scans, res.n_relaxations) == (1, 0)


def _route(index, d0):
    """Trajectory ``d0``'s path and start time, read from the forest."""
    rows = []
    for e, lv in index.forest.segments.items():
        for j in np.nonzero(lv.d == d0)[0]:
            rows.append((int(lv.row[j]), e, float(lv.t[j])))
    rows.sort()
    return tuple(e for _s, e, _t in rows), rows[0][2]


@pytest.mark.parametrize("pm", ["p1", "p3", "zone", "none"])
@pytest.mark.parametrize("sm", ["regular", "longest_prefix"])
@pytest.mark.parametrize("mode", [None, "CSS-Acc"])
def test_scans_bounded_by_path_length(small_index, pm, sm, mode):
    """With beta set, each node of the split tree makes one ladder scan
    and a single-segment leaf at most two more (drop f, fixed fallback),
    so a query makes at most 4|P| - 1 scans.  A scan per window tried
    breaks this bound on these queries when no estimator prunes."""
    est = CardinalityEstimator(small_index, mode) if mode else None
    for d0 in range(0, 400, 40):
        path, t0 = _route(small_index, d0)
        for user in (None, int(small_index.user_of[d0])):
            spq = SPQ(path=path, beta=20, user=user,
                      interval=periodic(t0 % DAY - 450, t0 % DAY + 450))
            res = trip_query(small_index, spq, partition_method=pm,
                             split_method=sm, estimator=est, exclude_d=d0)
            assert 0 < res.n_index_scans <= 4 * len(path) - 1


@pytest.mark.parametrize("pm", PARTITION_METHODS)
@pytest.mark.parametrize("mode", [None, "CSS-Acc"])
def test_non_edge_ids_rejected_before_partitioning(paper_index, pm, mode):
    """An id outside 1..n_edges raises the index's ValueError under every
    pi; a partitioner never reads a category or zone through it (a
    negative id would read the last edge's)."""
    est = CardinalityEstimator(paper_index, mode) if mode else None
    n = paper_index.net.n_edges
    for bad in (0, -1, n + 1, 10 ** 9):
        for path in ((bad,), (A, B, bad), (bad, C, D)):
            spq = SPQ(path=path, interval=periodic(0, 900), beta=1)
            with pytest.raises(ValueError, match=f"unknown edge id {bad} "):
                trip_query(paper_index, spq, partition_method=pm,
                           split_method="regular", estimator=est)
