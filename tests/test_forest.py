"""Temporal forest: candidates, buildMap/probeMap semantics."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import DAY, fixed, periodic
from repro.fmindex.fm import FMIndex
from repro.temporal.forest import SegmentLeaves, TemporalForest


def make_leaves(ts, backend="css", **over):
    n = len(ts)
    kw = dict(
        t=np.asarray(ts, dtype=float),
        isa=np.arange(n, dtype=np.int64),
        d=np.arange(n, dtype=np.int64),
        row=np.arange(n, dtype=np.int64),
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


def forest_of(table, backend="css"):
    """The forest over a leaf table with columns ``e, t, isa, d, tt, a,
    seq`` in any row order: its records go in in (d, seq) order."""
    tbl = table.sort_values(["d", "seq"], kind="stable")
    return TemporalForest(*(tbl[c].to_numpy() for c in
                            ("e", "t", "isa", "d", "tt", "a")),
                          backend=backend)


def make_forest(backend="css"):
    # two trajectories traversing segments 1 -> 2; one lone traversal of 2
    rows = [
        # e, t, isa, d, tt, a, seq
        (1, 100.0, 4, 0, 10.0, 10.0, 0),
        (1, 200.0, 5, 1, 12.0, 12.0, 0),
        (2, 110.0, 9, 0, 20.0, 30.0, 1),
        (2, 212.0, 8, 1, 25.0, 37.0, 1),
        (2, 500.0, 7, 2, 9.0, 9.0, 0),
    ]
    pdf = pd.DataFrame(rows, columns=["e", "t", "isa", "d", "tt", "a",
                                      "seq"])
    return forest_of(pdf, backend)


def test_trajectory_ordered_aggregates():
    f = make_forest()
    # rows in (d, seq) order: (0,0) (0,1) (1,0) (1,1) (2,0)
    assert f.get(1).row.tolist() == [0, 2]
    assert f.get(2).row.tolist() == [1, 3, 4]
    assert f.a.tolist() == [10.0, 30.0, 12.0, 37.0, 9.0]
    assert f.tt.tolist() == [10.0, 20.0, 12.0, 25.0, 9.0]
    assert not hasattr(f.get(1), "a") and not hasattr(f.get(1), "tt")


@pytest.mark.parametrize("backend", ["css", "bt"])
def test_buildmap_probe_roundtrip(backend):
    f = make_forest(backend)
    ranges = np.array([[4, 6]])  # both d=0 and d=1 start the path
    u = np.array([100, 200, 300])
    m = f.build_map(1, ranges, fixed(0, 1000), None, None, u)
    assert m.dtype == np.int64 and m.tolist() == [0, 2]  # rows of (0,0), (1,0)
    assert f.probe_map(2, 2, m) == [30.0, 37.0]  # in scan order


def test_buildmap_isa_filter():
    f = make_forest()
    m = f.build_map(1, np.array([[5, 6]]), fixed(0, 1000), None, None, None)
    assert m.tolist() == [2]


def test_buildmap_beta_truncation_in_scan_order():
    f = make_forest()
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), None, 1, None)
    assert m.tolist() == [0]  # earliest t first


def test_buildmap_user_filter():
    f = make_forest()
    u = np.array([7, 8, 7])
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), 8, None, u)
    assert m.tolist() == [2]


def test_buildmap_exclude_d():
    f = make_forest()
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), None, None,
                    None, exclude_d=0)
    assert m.tolist() == [2]


def test_buildmap_timeframe():
    f = make_forest()
    m = f.build_map(1, np.array([[4, 6]]), fixed(0, 1000), None, None,
                    None, timeframe=(150.0, 1000.0))
    assert m.tolist() == [2]


def _six_trips_forest(backend):
    """Segment 1 entered by trajectories d = 0..5 at 08:00 + 10 d s on
    day d; ISA value d, user 1 for d < 3 and 2 for the rest."""
    d = np.arange(6)
    rows = pd.DataFrame({"e": 1, "t": d * DAY + 8 * 3600 + 10 * d,
                         "isa": d, "d": d, "tt": 1.0, "a": 1.0, "seq": 0})
    return forest_of(rows, backend), np.array([1, 1, 1, 2, 2, 2])


class _Unread:
    """ISA ranges that fail the test if the scan reads them."""

    def ravel(self):
        raise AssertionError("the spatial mask ran")


@pytest.mark.parametrize("backend", ["css", "bt"])
def test_periodic_beta_scan_aborts_below_beta(backend):
    """A periodic scan with beta returns no rows, and names no rung, once
    it cannot reach beta: with fewer than beta candidates (before any
    mask), and with fewer than beta matches after the ISA, exclude_d and
    user masks.  Fixed windows and beta = None keep their rows."""
    f, users = _six_trips_forest(backend)
    peak = periodic(7.5 * 3600, 8.5 * 3600)
    narrow = periodic(8 * 3600, 8 * 3600 + 15)  # d = 0 and d = 1 only
    all_isa = np.array([[0, 6]])

    def scan(interval, beta, ranges=all_isa, **kw):
        answered = [-1]
        m = f.build_map(1, ranges, interval, kw.get("user"), beta, users,
                        kw.get("exclude_d"), None, [interval], answered)
        return m.tolist(), answered[0]

    # fewer than beta candidates: no mask is computed
    assert scan(peak, 7, _Unread()) == ([], -1)
    assert scan(narrow, 3, _Unread()) == ([], -1)
    # enough candidates, too few matches after each mask
    assert scan(peak, 4, np.array([[0, 3]])) == ([], -1)
    assert scan(peak, 4, np.array([[0, 4]]), exclude_d=0) == ([], -1)
    assert scan(peak, 4, user=2) == ([], -1)
    assert scan(peak, 3, np.array([[1, 6]]), user=1) == ([], -1)
    # exactly beta matches answer
    assert scan(peak, 3, np.array([[0, 4]]), exclude_d=0) == ([1, 2, 3], 0)
    assert scan(peak, 3, user=2) == ([3, 4, 5], 0)
    assert scan(narrow, 2) == ([0, 1], 0)
    # a fixed window returns its partial rows, beta = None all of them
    week = fixed(0, 10 * DAY)
    assert scan(week, 7) == ([0, 1, 2, 3, 4, 5], 0)
    assert scan(week, 4, np.array([[0, 4]]), exclude_d=0) == ([1, 2, 3], 0)
    assert scan(peak, None, np.array([[0, 4]]), exclude_d=0) == \
        ([1, 2, 3], 0)
    assert scan(narrow, None, user=2) == ([], 0)


def test_buildmap_missing_segment():
    f = make_forest()
    m = f.build_map(99, np.array([[0, 10]]), fixed(0, 1e9), None, None,
                    None)
    assert m.dtype == np.int64 and len(m) == 0
    assert f.probe_map(99, 2, m) == []


def test_periodic_beta_truncation_takes_time_of_day_order():
    """A periodic scan visits candidates by time of day, not by date.

    Entries at day 0 08:20 (d = 0) and day 1 08:05 (d = 1): with a
    08:00-08:30 window and beta = 1 the scan returns d = 1, where a
    chronological scan of one repetition after another would return d = 0.
    """
    rows = [(1, 8 * 3600 + 1200.0, 0, 0, 5.0, 5.0, 0),
            (1, DAY + 8 * 3600 + 300.0, 1, 1, 7.0, 7.0, 0)]
    f = forest_of(pd.DataFrame(rows, columns=["e", "t", "isa", "d", "tt",
                                              "a", "seq"]))
    ranges = np.array([[0, 2]])
    window = periodic(8 * 3600, 8.5 * 3600)
    assert f.build_map(1, ranges, window, None, None, None).tolist() == [1, 0]
    m = f.build_map(1, ranges, window, None, 1, None)
    assert f.get(1).row.tolist() == [0, 1] and m.tolist() == [1]
    assert f.probe_map(1, 1, m) == [7.0]


def test_partition_aware_isa_ranges():
    """Partition 0's suffixes are numbered 0..9 and partition 1's 10..19:
    each leaf's global ISA is tested against its own partition's range."""
    rows = [
        (1, 10.0, 4, 0, 1.0, 1.0, 0),    # partition 0, local isa 4
        (1, 20.0, 14, 1, 1.0, 1.0, 0),   # partition 1, local isa 4
        (1, 30.0, 10, 2, 1.0, 1.0, 0),   # partition 1, at its span start
        (1, 40.0, 5, 3, 1.0, 1.0, 0),    # partition 0, at range 0's end
    ]
    pdf = pd.DataFrame(rows, columns=["e", "t", "isa", "d", "tt", "a",
                                      "seq"])
    f = forest_of(pdf)
    # partition 0 matches local isa 4, partition 1 nothing: its empty
    # range sits at local 4 too
    ranges = np.array([[4, 5], [14, 14]])
    assert f.build_map(1, ranges, fixed(0, 100), None, None, None
                       ).tolist() == [0]
    # ranges that touch: [5, 10) and [10, 15)
    ranges = np.array([[5, 10], [10, 15]])
    assert f.build_map(1, ranges, fixed(0, 100), None, None, None
                       ).tolist() == [1, 2, 3]


#: W trajectory strings, each a list of words over 1..4; word k becomes
#: trajectory k, a $ (0) ends every word
words_st = st.lists(
    st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                      max_size=6), min_size=1, max_size=5),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(words_st,
       st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                         max_size=4), min_size=1, max_size=6))
def test_global_isa_mask_equals_per_partition_rule(strings, paths):
    """``build_map``'s one ``searchsorted`` over the W global ranges
    keeps exactly the leaves of the per-partition rule ``st[w] <= isa -
    span[0, w] < ed[w]`` on partition-relative ranges, and those are the
    positions where the path starts."""
    # one leaf per symbol, in position order: global position, partition,
    # trajectory (one per word), seq
    text, pos, part, d, seq = [], [], [], [], []
    g = traj = 0
    for w, words in enumerate(strings):
        text.append(np.array([e for word in words for e in word + [0]]))
        for word in words:
            pos += range(g, g + len(word))
            part += [w] * len(word)
            d += [traj] * len(word)
            seq += range(len(word))
            g += len(word) + 1
            traj += 1
    fm = FMIndex(text, alphabet_size=5)
    flat = np.concatenate(text)
    pos, w = np.array(pos), np.array(part)
    table = pd.DataFrame({"e": flat[pos], "t": np.arange(len(pos)) * 1.0,
                          "isa": fm.isa[pos], "d": d, "tt": 1.0, "a": 1.0,
                          "seq": seq})
    f = forest_of(table)
    local = fm.isa[pos] - fm.span[0, w]
    for p in paths:
        ranges = fm.isa_ranges(p)
        rel = ranges - fm.span[0][:, None]
        old = (flat[pos] == p[0]) & (rel[w, 0] <= local) & (local < rel[w, 1])
        starts = np.array([list(flat[i:i + len(p)]) == p for i in pos])
        assert np.array_equal(old, starts)
        got = f.build_map(p[0], ranges, fixed(0, len(pos)), None, None, None)
        # a leaf's row, its index in (d, seq) order, is its index in
        # position order
        assert got.tolist() == np.flatnonzero(old).tolist()


def test_memory_report():
    f = make_forest()
    rep = f.memory_report()
    assert rep["Forest"] == rep["leaves"] + rep["trees"] > 0
    per_seg = sum(seg.nbytes()[0] for seg in f.segments.values())
    assert rep["leaves"] == per_seg + 5 * (f.a.itemsize + f.tt.itemsize)
    lv = f.get(1)
    assert per_seg == 5 * sum(getattr(lv, k).itemsize
                              for k in ("t", "isa", "d", "row"))


def test_empty_forest():
    f = forest_of(pd.DataFrame(columns=["e", "t", "isa", "d", "tt", "a",
                                        "seq"]))
    assert f.get(1) is None
    assert f.memory_report()["Forest"] == 0
    m = f.build_map(1, np.array([[0, 10]]), fixed(0, 1e9), None, None, None)
    assert len(m) == 0 and f.probe_map(1, 1, m) == []


def _bound_forest(ladders, backend):
    """Segment 1's leaves on every rung bound of ``ladders`` (day 0, and
    day 3 where that keeps the time of day exact) plus 300 random ones;
    trajectory d's row is d.  Partition 0's global ISA values are
    ``0..n-1`` and partition 1's ``n..2n-1``; even trajectory d sits in
    partition 0 at ISA d, odd d in partition 1 at ISA n + d."""
    rng = np.random.default_rng(11)
    tods = [v % DAY for ladder in ladders for rung in ladder
            for part in rung.tod_ranges() for v in part]
    tods += rng.uniform(0, DAY, 300).tolist()
    ts = tods + [v + 3 * DAY for v in tods if (v + 3 * DAY) % DAY == v]
    n = len(ts)
    d = np.arange(n)
    rows = pd.DataFrame({"e": 1, "t": ts, "isa": d + n * (d % 2), "d": d,
                         "tt": 1.0, "a": 1.0, "seq": 0})
    return forest_of(rows, backend), n


@pytest.mark.parametrize("backend", ["css", "bt"])
def test_ladder_rows_are_answering_rungs_own_scan(backend):
    """A scan of a ladder's widest rung returns the rows, and names the
    rung, of a plain ``build_map`` of the first rung with ``beta``
    matches, for every run of consecutive rungs; when no rung has
    ``beta`` matches it returns no rows and names no rung.  Leaves
    sit exactly on the rung bounds: a rung's ``lo`` is inside it, its
    ``hi`` outside, midnight included."""
    from repro.core.splitting import widen_ladder
    ladders = [widen_ladder(periodic(c - h, c + h)) for c, h in (
        (8 * 3600, 450.0), (DAY - 600, 1000.0), (700, 200.0),
        (3 * DAY + 1800, 4000.0), (0.0, 450.0), (0.0, 1234.5))]
    ladders += [widen_ladder(periodic(1000, 0)),        # negative size
                widen_ladder(periodic(5000, 5000 + 7200)),  # at 120 min
                widen_ladder(periodic(DAY - 3600, DAY + 5000))]
    # wrapping rungs inside a wrapping widest rung; one-rung ladders
    assert len(ladders[4][0].tod_ranges()) == 2
    assert len(ladders[4][-1].tod_ranges()) == 2
    assert ladders[6][0].size < 0 and len(ladders[6]) > 1
    assert len(ladders[7]) == len(ladders[8]) == 1
    f, n = _bound_forest(ladders, backend)
    lv = f.get(1)
    # all of partition 0 and odd d < n // 2 of partition 1 match
    ranges = np.array([[0, n], [n, n + n // 2]])
    n_bounds = 0
    for ladder in ladders:
        for rung in ladder:
            tod = lv.t[lv.candidates(rung)] % DAY
            for lo, hi in rung.tod_ranges():
                if hi > lo:
                    assert lo in tod
                    n_bounds += 1
                if hi < DAY:
                    assert hi not in tod
        for i in range(len(ladder)):
            for j in range(i + 1, len(ladder) + 1):
                rungs = ladder[i:j]
                plain = [f.build_map(1, ranges, r, None, None, None)
                         for r in rungs]
                for beta in {1, 2, 7, 10 ** 6} | {len(p) + o for p in plain
                                                  for o in (0, 1)}:
                    k = next((k for k, p in enumerate(plain)
                              if len(p) >= beta), None)
                    answered = [-1]
                    got = f.build_map(1, ranges, rungs[-1], None, beta,
                                      None, None, None, rungs, answered)
                    if k is None:  # no rung reaches beta: the scan aborts
                        assert got.tolist() == [] and answered == [-1]
                        continue
                    assert got.tolist() == plain[k][:beta].tolist()
                    scanned = len(lv.candidates(rungs[-1])) > 0
                    assert answered[0] == (k if scanned else -1)
    assert n_bounds > 40
    # beta = None: a one-rung ladder returns the plain scan
    one = ladders[7]
    answered = [-1]
    got = f.build_map(1, ranges, one[0], None, None, None, None, None, one,
                      answered)
    assert got.tolist() == f.build_map(1, ranges, one[0], None, None,
                                       None).tolist()
    assert answered == [0]


def _pandas_reference(table, backend):
    """The former construction: a pandas stable sort by (e, t), then one
    ``SegmentLeaves`` per segment from the sorted columns."""
    tbl = table.sort_values(["e", "t"], kind="stable")
    e_arr = tbl["e"].to_numpy()
    cols = {c: tbl[c].to_numpy() for c in ("t", "isa", "d", "tt", "a",
                                           "seq")}
    d = cols["d"].astype(np.int64)
    first = np.concatenate(([0], np.cumsum(np.bincount(d))))
    row = first[d] + cols["seq"]
    a = np.empty(len(row))
    a[row] = cols["a"]
    tt = np.empty(len(row))
    tt[row] = cols["tt"]
    uniq, starts = np.unique(e_arr, return_index=True)
    bounds = np.append(starts, len(e_arr))
    segments = {}
    for i, e in enumerate(uniq):
        sl = slice(int(bounds[i]), int(bounds[i + 1]))
        segments[int(e)] = SegmentLeaves(
            t=cols["t"][sl].astype(np.float64),
            isa=cols["isa"][sl].astype(np.int32),
            d=cols["d"][sl].astype(np.int32),
            row=row[sl].astype(np.int32),
            backend=backend)
    return segments, a, tt


def _tree_shape(tree):
    """Keys and levels of a CSS-tree; leaf runs and separators of a
    B+-tree, root first."""
    if hasattr(tree, "levels"):
        return [tree.keys.tolist()] + [lv.tolist() for lv in tree.levels]
    shape, level = [], [tree.root]
    while level:
        shape.append([(n.start, list(n.keys)) if hasattr(n, "start")
                      else list(n.seps) for n in level])
        level = [c for n in level for c in getattr(n, "children", [])]
    return shape


def _tied_leaf_table(seed=4):
    """Shuffled leaf table whose (e, t) pairs repeat across trajectories,
    and whose times of day repeat across days on each segment."""
    rng = np.random.default_rng(seed)
    n_traj, n_rec = 80, 12
    tods = np.array([3600.0, 7200.0, 7200.5, 50000.0])
    rows = []
    for d in range(n_traj):
        e = rng.integers(1, 6, n_rec)
        t = rng.integers(0, 3, n_rec) * DAY + rng.choice(tods, n_rec)
        tt = rng.uniform(1, 60, n_rec)
        for seq in range(n_rec):
            rows.append((e[seq], t[seq], rng.integers(0, 10 ** 6), d,
                         tt[seq], tt[:seq + 1].sum(), seq))
    table = pd.DataFrame(rows, columns=["e", "t", "isa", "d", "tt", "a",
                                        "seq"])
    return table.iloc[rng.permutation(len(table))].reset_index(drop=True)


@pytest.mark.parametrize("backend", ["css", "bt"])
def test_tie_order_equals_pandas_stable_sort(backend):
    """Leaves with equal (e, t) keep their trajectory order, as the pandas
    ``sort_values(["e", "t"], kind="stable")`` of the (d, seq)-sorted
    table that the forest once used."""
    table = _tied_leaf_table()
    dup = table.duplicated(["e", "t"], keep=False)
    assert dup.sum() > 300  # most leaves share their (e, t) with another
    assert (table.groupby("e")["t"].apply(
        lambda t: (t % DAY).nunique() < t.nunique())).all()
    f = forest_of(table, backend)
    segments, a, tt = _pandas_reference(
        table.sort_values(["d", "seq"], kind="stable"), backend)
    assert sorted(f.segments) == sorted(segments) == [1, 2, 3, 4, 5]
    for e, ref in segments.items():
        got = f.segments[e]
        for name in ("t", "isa", "d", "row", "tod_order"):
            g, r = getattr(got, name), getattr(ref, name)
            assert g.dtype == r.dtype and np.array_equal(g, r), (e, name)
            assert g.base is None  # owns exactly its bytes
        for tree in ("t_tree", "tod_tree"):
            assert _tree_shape(getattr(got, tree)) == \
                _tree_shape(getattr(ref, tree)), (e, tree)
        assert got.nbytes() == ref.nbytes()
    for g, r in ((f.a, a), (f.tt, tt)):
        assert g.dtype == r.dtype and np.array_equal(g, r)
    ref_forest = forest_of(table.iloc[:0], backend)
    ref_forest.segments, ref_forest.a, ref_forest.tt = segments, a, tt
    assert f.memory_report() == ref_forest.memory_report()
