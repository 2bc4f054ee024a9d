"""Temporal forest: candidates, buildMap/probeMap semantics."""
import numpy as np
import pandas as pd
import pytest

from repro.core.intervals import DAY, fixed, periodic
from repro.temporal.forest import SegmentLeaves, TemporalForest


def make_leaves(ts, backend="css", **over):
    n = len(ts)
    kw = dict(
        t=np.asarray(ts, dtype=float),
        isa=np.arange(n, dtype=np.int64),
        d=np.arange(n, dtype=np.int64),
        tt=np.full(n, 10.0),
        a=np.full(n, 10.0),
        seq=np.zeros(n, dtype=np.int64),
        w=np.zeros(n, dtype=np.int64),
    )
    kw.update({k: np.asarray(v) for k, v in over.items()})
    return SegmentLeaves(backend=backend, **kw)


@pytest.mark.parametrize("backend", ["css", "bt"])
def test_fixed_candidates(backend):
    lv = make_leaves([0, 10, 20, 30, 40], backend=backend)
    assert list(lv.candidates(fixed(10, 35))) == [1, 2, 3]
    assert list(lv.candidates(fixed(100, 200))) == []


@pytest.mark.parametrize("backend", ["css", "bt"])
def test_periodic_candidates(backend):
    # entries at 08:00 day0, 20:00 day0, 08:10 day1 (leaves are t-sorted)
    ts = [8 * 3600, 20 * 3600, DAY + 8 * 3600 + 600]
    lv = make_leaves(ts, backend=backend)
    idx = lv.candidates(periodic(7.5 * 3600, 8.5 * 3600))
    assert sorted(lv.t[idx]) == [8 * 3600, DAY + 8 * 3600 + 600]


def test_periodic_midnight_wrap():
    ts = [12 * 3600, 23.9 * 3600, DAY + 0.05 * 3600]
    lv = make_leaves(ts)
    idx = lv.candidates(periodic(23.75 * 3600, 24.25 * 3600))
    assert sorted(lv.t[idx]) == [23.9 * 3600, DAY + 0.05 * 3600]


def test_find_by_d_seq():
    lv = make_leaves([0, 1, 2], d=[5, 5, 9], seq=[0, 3, 1])
    assert lv.find(5, 3) == 1
    assert lv.find(9, 1) == 2
    assert lv.find(9, 2) == -1
    assert lv.find(123, 0) == -1


def make_forest(backend="css"):
    # two trajectories traversing segments 1 -> 2; one lone traversal of 2
    rows = [
        # e, t, isa, d, tt, a, seq, w
        (1, 100.0, 4, 0, 10.0, 10.0, 0, 0),
        (1, 200.0, 5, 1, 12.0, 12.0, 0, 0),
        (2, 110.0, 9, 0, 20.0, 30.0, 1, 0),
        (2, 212.0, 8, 1, 25.0, 37.0, 1, 0),
        (2, 500.0, 7, 2, 9.0, 9.0, 0, 0),
    ]
    pdf = pd.DataFrame(rows, columns=["e", "t", "isa", "d", "tt", "a",
                                      "seq", "w"])
    return TemporalForest(pdf, backend=backend)


@pytest.mark.parametrize("backend", ["css", "bt"])
def test_buildmap_probe_roundtrip(backend):
    f = make_forest(backend)
    ranges = np.array([[4, 6]])  # both d=0 and d=1 start the path
    u = np.array([100, 200, 300])
    m = f.build_map(1, ranges, fixed(0, 1000), None, None, u)
    assert m == {(0, 0): 0.0, (1, 0): 0.0}
    xs = f.probe_map(2, 2, m)
    assert sorted(xs) == [30.0, 37.0]


def test_buildmap_isa_filter():
    f = make_forest()
    m = f.build_map(1, np.array([[5, 6]]), fixed(0, 1000), None, None, None)
    assert set(m) == {(1, 0)}


def test_buildmap_beta_truncation_in_scan_order():
    f = make_forest()
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), None, 1, None)
    assert set(m) == {(0, 0)}  # earliest t first


def test_buildmap_user_filter():
    f = make_forest()
    u = np.array([7, 8, 7])
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), 8, None, u)
    assert set(m) == {(1, 0)}


def test_buildmap_exclude_d():
    f = make_forest()
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), None, None,
                    None, exclude_d=0)
    assert set(m) == {(1, 0)}


def test_buildmap_timeframe():
    f = make_forest()
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), None, None,
                    None, timeframe=(150.0, 1000.0))
    assert set(m) == {(1, 0)}


def test_buildmap_missing_segment():
    f = make_forest()
    assert f.build_map(99, np.array([[0, 10]]), fixed(0, 1e9), None, None,
                       None) == {}


def test_probemap_missing_entries():
    f = make_forest()
    assert f.probe_map(2, 2, {(42, 0): 1.0}) == []
    assert f.probe_map(99, 2, {(0, 0): 0.0}) == []


def test_partition_aware_isa_ranges():
    rows = [
        (1, 10.0, 4, 0, 1.0, 1.0, 0, 0),   # partition 0, isa 4
        (1, 20.0, 4, 1, 1.0, 1.0, 0, 1),   # partition 1, isa 4 (different FM)
    ]
    pdf = pd.DataFrame(rows, columns=["e", "t", "isa", "d", "tt", "a",
                                      "seq", "w"])
    f = TemporalForest(pdf)
    # partition 0 matches isa 4, partition 1 does not
    ranges = np.array([[4, 5], [0, 0]])
    m = f.build_map(1, ranges, fixed(0, 100), None, None, None)
    assert set(m) == {(0, 0)}


def test_memory_report():
    f = make_forest()
    rep = f.memory_report()
    assert rep["Forest"] == rep["leaves"] + rep["trees"] > 0


def test_empty_forest():
    f = TemporalForest(pd.DataFrame(columns=["e", "t", "isa", "d", "tt",
                                             "a", "seq", "w"]))
    assert f.get(1) is None
    assert f.memory_report()["Forest"] == 0
