"""The fused sigma widening ladder against a step-by-step reference.

``trip_query`` estimates a periodic sub-query's whole widening ladder
with one estimator call and answers it with one scan of the widest rung
the estimator admits.  The reference below is the loop without that
fusion: one ``get_travel_times`` call per window, the estimator asked
before each, and ``relax`` after every failure, widening included.
Both must give the same sub-queries, samples, histogram and counters on
generated queries over the small dataset, at W = 1 and W = 32, for
every partitioning method, both split methods, with no estimator and
with each estimator mode.  The queries include windows that wrap
midnight and windows already at 120 min or more, before or after
shift-and-enlarge, and periodic queries without ``beta``, which
``relax`` widens one window at a time in both loops.
"""
from collections import deque

import numpy as np
import pytest

from repro.core.cardinality import ESTIMATOR_MODES, CardinalityEstimator
from repro.core.histogram import Histogram, convolve_all
from repro.core.intervals import DAY, periodic, shift_and_enlarge
import repro.core.query as query_mod
from repro.core.partitioning import PARTITION_METHODS, partition
from repro.core.query import trip_query
from repro.core.splitting import SPLIT_METHODS, relax
from repro.core.spq import SPQ
from repro.index.build import build_index_local

N_QUERIES = 12


def _stepwise(index, spq, partition_method, split_method, estimator,
              exclude_d):
    """Procedure 6 with one scan per window: (subs, hist, n_estimates,
    n_relaxations)."""

    def card(sub):
        if estimator is not None:
            return int(estimator.estimate(sub))
        if index.path_count(sub.path) == 0:
            return 0
        return len(index.forest.build_map(
            sub.path[0], index.isa_ranges(sub.path), sub.interval, sub.user,
            None, index.user_of, exclude_d, sub.timeframe))

    queue = deque((q, False) for q in partition(partition_method, spq,
                                                 index.net))
    subs, s_acc, r_acc, n_est, n_rel = [], 0.0, 0.0, 0, 0
    while queue:
        q, shifted = queue.popleft()
        if q.interval.periodic and subs and not shifted:
            q = q.with_(interval=shift_and_enlarge(q.interval, s_acc, r_acc))
            shifted = True
        if (estimator is not None and q.beta is not None
                and q.interval.periodic):
            n_est += 1
            if estimator.estimate(q) < q.beta:
                n_rel += 1
                queue.extendleft((nq, shifted) for nq in reversed(
                    relax(q, split_method, card, index.tmax)))
                continue
        r = index.get_travel_times(q.path, q.interval, q.user, q.beta,
                                   exclude_d, q.timeframe)
        if r.xs:
            subs.append((q, r.xs, r.fallback))
            s_acc += min(r.xs)
            r_acc += max(r.xs) - min(r.xs)
        else:
            n_rel += 1
            queue.extendleft((nq, shifted) for nq in reversed(
                relax(q, split_method, card, index.tmax)))
    hist = convolve_all([Histogram.from_values(xs) for _, xs, _ in subs])
    return subs, hist, n_est, n_rel


def _queries(traversals, n, seed):
    """Generated SPQs over real trips: ``(spq, exclude_d)``; ``n`` of them
    have a ``beta``, and each of the first two kinds (windows below
    120 min) also comes without one.  A periodic sub-query without
    ``beta`` is a one-rung ladder, so when it finds no match ``relax``
    widens it."""
    trav = traversals.sort_values(["d", "seq"])
    trips = [(int(d), int(g["u"].iloc[0]), g["e"].to_numpy(),
              g["t"].to_numpy()) for d, g in trav.groupby("d")
             if len(g) >= 3]
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        d, u, es, ts = trips[int(rng.integers(len(trips)))]
        s = int(rng.integers(len(es) - 2))
        path = tuple(int(e) for e in es[s:s + int(rng.integers(3, 9))])
        tod = float(ts[s]) % DAY
        kind = i % 4
        if kind == 0:    # alpha_min around the trip start
            half = 450.0
        elif kind == 1:  # an off-ladder size
            half = float(rng.uniform(60, 3000))
        else:            # already at 120 min or more
            half = float(rng.uniform(3600, 5000))
        if i % 3 == 0:   # centred near midnight: the window wraps
            tod = float(rng.uniform(-1800, 1800)) % DAY
        spq = SPQ(path=path, interval=periodic(tod - half, tod + half),
                  user=u if i % 5 == 0 else None,
                  beta=int(rng.choice([2, 3, 5, 20])))
        out.append((spq, d if i % 2 == 0 else None))
        if kind < 2:
            out.append((spq.with_(beta=None), d if i % 2 == 0 else None))
    return out


@pytest.fixture(scope="module")
def traversals(small_traversals):
    """The small dataset 16.5 h later: its morning peak spans midnight."""
    return small_traversals.assign(t=small_traversals["t"] + 16.5 * 3600)


@pytest.fixture(scope="module", params=[None, 30], ids=["W1", "W32"])
def index(request, small_net, traversals):
    return build_index_local(small_net, traversals,
                             partition_days=request.param)


@pytest.mark.parametrize("mode", (None,) + ESTIMATOR_MODES)
def test_fused_ladder_matches_stepwise(index, traversals, mode, monkeypatch):
    est = CardinalityEstimator(index, mode) if mode else None
    queries = _queries(traversals, N_QUERIES, seed=7)
    wraps = big = 0
    widened = []  # the sub-queries that trip_query's relax widened

    def counting_relax(spq, *args):
        out = relax(spq, *args)
        if out[0].interval.periodic and \
                out[0].interval.size > spq.interval.size:
            widened.append(spq)
        return out

    monkeypatch.setattr(query_mod, "relax", counting_relax)
    for pm in PARTITION_METHODS:
        for sm in SPLIT_METHODS:
            for spq, xd in queries:
                got = trip_query(index, spq, partition_method=pm,
                                 split_method=sm, estimator=est,
                                 exclude_d=xd, hist_h=1.0)
                subs, hist, n_est, n_rel = _stepwise(index, spq, pm, sm,
                                                     est, xd)
                where = (pm, sm, spq, xd)
                assert [(s.spq.lo, s.spq.hi, s.spq.interval, s.xs,
                         s.fallback) for s in got.subs] == \
                    [(q.lo, q.hi, q.interval, xs, fb)
                     for q, xs, fb in subs], where
                assert got.hist.base == hist.base, where
                assert np.array_equal(got.hist.counts, hist.counts), where
                assert (got.n_estimates, got.n_relaxations) == \
                    (n_est, n_rel), where
                for s in got.subs:
                    ivl = s.spq.interval
                    if ivl.periodic:
                        wraps += len(ivl.tod_ranges()) == 2
                        big += ivl.size >= 7200
    assert wraps > 0 and big > 0
    # only a sub-query without beta is widened by relax; a ladder is
    # relaxed from its widest rung
    assert widened and all(q.beta is None for q in widened)



class _SkipsRungs:
    """An estimator that is not monotone over a ladder: it turns away
    the 30- and 90-min rungs and lets every other window through, so
    the rungs it admits are not a suffix of the ladder, and a rung with
    ``beta`` matches may be one it turned away."""

    def __init__(self, index):
        self.index = index

    def estimate(self, spq, ranges=None):
        if round(spq.interval.size) in (1800, 5400):
            return 0.0
        return float(self.index.path_count(spq.path, ranges))

    def estimate_ladder(self, spq, rungs, ranges=None):
        return [self.estimate(spq.with_(interval=i), ranges) for i in rungs]


def test_fused_ladder_skips_rungs_the_estimator_turns_away(index,
                                                           traversals):
    """The answer is the first rung that both the estimator and the
    count admit, also when the admitted rungs have gaps."""
    est = _SkipsRungs(index)
    for spq, xd in _queries(traversals, N_QUERIES, seed=3):
        for sm in SPLIT_METHODS:
            got = trip_query(index, spq, partition_method="none",
                             split_method=sm, estimator=est, exclude_d=xd,
                             hist_h=1.0)
            subs, hist, n_est, n_rel = _stepwise(index, spq, "none", sm,
                                                 est, xd)
            assert [(s.spq.interval, s.xs) for s in got.subs] == \
                [(q.interval, xs) for q, xs, _ in subs], (sm, spq, xd)
            assert (got.n_estimates, got.n_relaxations) == (n_est, n_rel)
