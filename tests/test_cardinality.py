"""Cardinality estimator modes (paper sec. 4.4) on the example + small data."""
import numpy as np
import pytest

from repro.core.cardinality import ESTIMATOR_MODES, SEL_USER, CardinalityEstimator
from repro.core.intervals import DAY, fixed, periodic
from repro.core.metrics import q_error
from repro.core.splitting import widen_ladder
from repro.core.spq import SPQ
from repro.index.snt import uniform_selectivity
from tests.conftest import A, B, E, U1
from tests.test_snt import _tod_selectivity_by_partition


def q(path, ivl, user=None, beta=20, tf=None):
    return SPQ(path=tuple(path), interval=ivl, user=user, beta=beta,
               timeframe=tf)


def test_isa_mode_is_exact_path_count(paper_index):
    est = CardinalityEstimator(paper_index, "ISA")
    assert est.estimate(q([A], periodic(0, 900))) == 4
    assert est.estimate(q([A, B], periodic(0, 900))) == 3
    assert est.estimate(q([A, B, E], periodic(0, 900))) == 2


def test_unknown_mode_rejected(paper_index):
    with pytest.raises(ValueError):
        CardinalityEstimator(paper_index, "magic")


def test_fast_mode_uses_uniform_tod(paper_index):
    est = CardinalityEstimator(paper_index, "BT-Fast")
    # window of 1/4 day -> cP * 0.25
    v = est.estimate(q([A], periodic(0, DAY / 4)))
    assert v == pytest.approx(4 * 0.25)


def test_acc_mode_uses_tod_histogram(paper_index):
    est = CardinalityEstimator(paper_index, "BT-Acc")
    # all four A-entries are in the first ToD bucket -> window around 0
    # catches everything, a mid-day window nothing
    assert est.estimate(q([A], periodic(0, 600))) == pytest.approx(4.0)
    assert est.estimate(q([A], periodic(40000, 40600))) == 0.0


def test_user_predicate_applies_selinger_default(paper_index):
    f = CardinalityEstimator(paper_index, "BT-Fast")
    with_u = f.estimate(q([A], periodic(0, DAY / 2), user=U1))
    without = f.estimate(q([A], periodic(0, DAY / 2)))
    assert with_u == pytest.approx(without * SEL_USER)


def test_css_timeframe_is_exact(paper_index):
    est = CardinalityEstimator(paper_index, "CSS-Fast")
    # timeframe [0, 5): 3 of 4 A-entries -> cP * seltod * 3/4
    v = est.estimate(q([A], periodic(0, DAY), tf=(0.0, 5.0)))
    assert v == pytest.approx(4 * 1.0 * 0.75)


def test_bt_timeframe_is_fraction_of_span(paper_index):
    est = CardinalityEstimator(paper_index, "BT-Fast")
    # span of A is [0, 6]; timeframe [0, 3) -> 0.5 fraction
    v = est.estimate(q([A], periodic(0, DAY), tf=(0.0, 3.0)))
    assert v == pytest.approx(4 * 0.5)


def test_zero_path_count_short_circuits(paper_index):
    for mode in ESTIMATOR_MODES:
        est = CardinalityEstimator(paper_index, mode)
        assert est.estimate(q([E, A], periodic(0, 900))) == 0.0


@pytest.mark.parametrize("mode", ESTIMATOR_MODES)
def test_modes_on_generated_data(small_index, mode):
    """Estimates are positive, finite, and ISA dominates the filtered modes."""
    est = CardinalityEstimator(small_index, mode)
    seg = next(iter(small_index.forest.segments))
    ivl = periodic(8 * 3600 - 450, 8 * 3600 + 450)
    v = est.estimate(q([seg], ivl))
    assert np.isfinite(v) and v >= 0
    isa = CardinalityEstimator(small_index, "ISA").estimate(q([seg], ivl))
    assert v <= isa + 1e-9


def test_isa_overestimates_periodic_counts(small_index):
    """The Fig.-11a shape: ISA-only q-error far above the other modes."""
    segs = sorted(small_index.forest.segments)[:40]
    ivl = periodic(8 * 3600 - 450, 8 * 3600 + 450)
    qe = {"ISA": [], "CSS-Acc": []}
    for s in segs:
        actual = len(small_index.forest.build_map(
            s, small_index.isa_ranges([s]), ivl, None, None,
            small_index.user_of))
        for mode in qe:
            b = CardinalityEstimator(small_index, mode).estimate(q([s], ivl))
            qe[mode].append(q_error(b, actual))
    assert np.mean(np.log10(qe["ISA"])) > np.mean(np.log10(qe["CSS-Acc"]))


def test_acc_partitioned_scan_equals_full(small_net, small_traversals):
    """Partitioned-store scans must sum to the FULL index's selectivity."""
    from repro.index.build import build_index_local
    full = build_index_local(small_net, small_traversals)
    part = build_index_local(small_net, small_traversals, partition_days=180)
    assert part.n_partitions > 1
    seg = next(iter(full.forest.segments))
    ivl = periodic(7 * 3600, 9 * 3600)
    assert part.tod_selectivities(seg, [ivl])[0] == pytest.approx(
        full.tod_selectivities(seg, [ivl])[0])


@pytest.mark.parametrize("mode", ESTIMATOR_MODES)
def test_estimate_between_zero_and_path_count(paper_index, small_index,
                                              mode):
    """0 <= beta_hat <= c_P for inverted windows, windows that wrap
    midnight (up to one just short of a day, whose two ranges share a
    time-of-day bucket) and windows of 24 h or more."""
    windows = [periodic(1000, 0), periodic(40000, 39999.5),
               periodic(0, -DAY), periodic(DAY - 300, DAY + 300),
               periodic(-450, 450), periodic(300, 300 + DAY - 100),
               periodic(0, DAY), periodic(5, 5 + DAY),
               periodic(-DAY, 2 * DAY)]
    rng = np.random.default_rng(9)
    for _ in range(60):
        ts = float(rng.uniform(-DAY, 2 * DAY))
        size = float(rng.choice([-DAY, -1, 0, 300, DAY - 1, DAY, 3 * DAY]))
        windows.append(periodic(ts, ts + size))
    for index, paths in ((paper_index, [[A], [A, B], [A, B, E]]),
                         (small_index, [[s] for s in
                                        sorted(small_index.forest.segments)
                                        [:20]])):
        est = CardinalityEstimator(index, mode)
        for path in paths:
            c_p = index.path_count(path)
            for ivl in windows:
                for user, tf in ((None, None), (U1, (0.0, 5.0))):
                    v = est.estimate(q(path, ivl, user=user, tf=tf))
                    assert 0 <= v <= c_p, (path, ivl, user, tf)


@pytest.fixture(scope="module")
def small_index_30d(small_net, small_traversals):
    from repro.index.build import build_index_local
    return build_index_local(small_net, small_traversals, partition_days=30)


@pytest.mark.parametrize("mode", ["BT-Fast", "BT-Acc", "CSS-Fast", "CSS-Acc"])
def test_empty_window_estimates_zero(small_index, small_index_30d, mode):
    """A periodic window of size <= 0 matches no leaf, so beta_hat is 0,
    also when both of its bounds fall in one time-of-day bucket (Eq. 2
    once gave 0.057 at ts = 23453.4 on segment 322)."""
    rng = np.random.default_rng(11)
    starts = [23453.4] + [float(x) for x in rng.uniform(-DAY, 2 * DAY, 20)]
    for index in (small_index, small_index_30d):
        est = CardinalityEstimator(index, mode)
        for e in [322] + sorted(index.forest.segments)[:10]:
            assert index.path_count([e]) > 0
            for ts in starts:
                for size in (0.0, -10.0, -1000.0):
                    ivl = periodic(ts, ts + size)
                    assert index.forest.build_map(
                        e, index.isa_ranges([e]), ivl, None, None,
                        index.user_of).size == 0
                    assert est.estimate(q([e], ivl)) == 0.0, (e, ts, size)


def _reference_estimate(est, spq):
    """beta_hat of one window as the paper composes it, with Eq. 2 read
    from one bucket-count histogram per partition."""
    index = est.index
    c_p = index.path_count(spq.path)
    if est.mode == "ISA" or c_p == 0:
        return float(c_p)
    e0 = spq.path[0]
    sel = 1.0
    if spq.interval.periodic:
        if est.mode.endswith("Acc"):
            sel *= _tod_selectivity_by_partition(index, e0, spq.interval)
        else:
            sel *= uniform_selectivity(spq.interval)
    if spq.timeframe is not None:
        sel *= est._seltf(e0, spq.timeframe)
    if spq.user is not None:
        sel *= SEL_USER
    return sel * c_p


def _generated_ladders(index, traversals, n, seed):
    """``(spq, ladder)`` over real trips: windows centred on the trip's
    start, some moved next to midnight so that they wrap, and sizes from
    below alpha_min to over a day; user and time-frame predicates on
    some of them."""
    trav = traversals.sort_values(["d", "seq"])
    trips = [(int(g["u"].iloc[0]), g["e"].to_numpy(), g["t"].to_numpy())
             for _, g in trav.groupby("d") if len(g) >= 3]
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        u, es, ts = trips[int(rng.integers(len(trips)))]
        s = int(rng.integers(len(es) - 2))
        path = tuple(int(e) for e in es[s:s + int(rng.integers(1, 6))])
        tod = float(ts[s]) % DAY
        if i % 3 == 0:
            tod = float(rng.uniform(-1800, 1800)) % DAY
        half = float(rng.choice([450.0, rng.uniform(60, 3000),
                                 rng.uniform(3600, 5000), DAY]))
        tf = ((float(ts[s]) - 30 * DAY, float(ts[s])) if i % 4 == 1
              else None)
        spq = SPQ(path=path, interval=periodic(tod - half, tod + half),
                  user=u if i % 5 == 0 else None, beta=20, timeframe=tf)
        out.append((spq, widen_ladder(spq.interval)))
    return out


@pytest.mark.parametrize("mode", ESTIMATOR_MODES)
def test_estimate_ladder_equals_estimate_per_rung(
        small_index, small_index_30d, small_traversals, mode):
    """Each rung's value is bit-identical to a one-window estimate and
    to the paper's per-window composition; Eq. 2 of the stacked store
    equals the per-partition walk rung by rung.  At W = 1 and W > 2,
    with windows that wrap midnight and windows of 120 min or more."""
    assert small_index.n_partitions == 1
    assert small_index_30d.n_partitions > 2
    for index in (small_index, small_index_30d):
        est = CardinalityEstimator(index, mode)
        wraps = big = climbs = 0
        for spq, ladder in _generated_ladders(index, small_traversals, 60,
                                              seed=4):
            got = est.estimate_ladder(spq, ladder, index.isa_ranges(
                spq.path))
            assert len(got) == len(ladder)
            for k, rung in enumerate(ladder):
                one = spq.with_(interval=rung)
                assert got[k] == est.estimate(one), (spq, k)
                assert got[k] == _reference_estimate(est, one), (spq, k)
                wraps += len(rung.tod_ranges()) == 2
                big += rung.size >= 7200
            sels = index.tod_selectivities(spq.path[0], ladder)
            assert sels == [_tod_selectivity_by_partition(
                index, spq.path[0], rung) for rung in ladder]
            climbs += len(ladder) > 2
        assert wraps and big and climbs


@pytest.mark.parametrize("mode", ESTIMATOR_MODES)
def test_estimate_ladder_is_non_decreasing(small_index, small_index_30d,
                                           small_traversals, mode):
    """A wider rung never gets a smaller estimate, so the rungs an
    estimator admits (beta_hat >= beta) are a suffix of the ladder."""
    for index in (small_index, small_index_30d):
        est = CardinalityEstimator(index, mode)
        for spq, ladder in _generated_ladders(index, small_traversals, 80,
                                              seed=8):
            got = est.estimate_ladder(spq, ladder)
            assert got == sorted(got), (spq, got)


def test_estimate_ladder_of_a_fixed_window(small_index):
    """A fixed window is a one-rung ladder without a time-of-day factor."""
    seg = sorted(small_index.forest.segments)[0]
    spq = q([seg], fixed(0.0, 1e9), user=U1, tf=(0.0, 5e5))
    for mode in ESTIMATOR_MODES:
        est = CardinalityEstimator(small_index, mode)
        assert est.estimate_ladder(spq, [spq.interval]) == \
            [est.estimate(spq)] == [_reference_estimate(est, spq)]
