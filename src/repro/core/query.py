"""tripQuery — full travel-time query processing (paper Procedure 6).

Orchestrates the system of Fig. 2: partition the query with pi, adapt
later sub-queries' periodic windows with shift-and-enlarge, optionally
pre-check each sub-query with the cardinality estimator, execute it
against the SNT-index (Procedure 5), and on failure push its
sigma-relaxation back onto the queue.  Sub-query relaxations *replace*
the failed sub-query at its queue position, so results stay in path
order and the shift-and-enlarge accumulators (sum of previous minima /
ranges) remain well-defined.

Every sub-query climbs its sigma widening ladder
(:func:`repro.core.splitting.widen_ladder`) in place; a fixed window, a
window already at alpha_max or a sub-query without ``beta`` is a
one-rung ladder.  For a periodic sub-query with ``beta`` the estimator
rates the whole ladder in one call
(:meth:`repro.core.cardinality.CardinalityEstimator.estimate_ladder`),
and the rungs with beta_hat >= beta are admitted.  One scan of the
widest admitted rung (:meth:`repro.index.snt.SNTIndex.get_travel_times`
over the admitted sub-ladder) finds the first admitted rung with
``beta`` matches.  The answer is the first rung that both the estimate
and the count let through, with the samples a scan of that rung alone
returns, so the answers are those of estimating, widening and
rescanning one rung at a time.  A ladder that no rung answers, or whose
rungs the estimator all turns away (then without a scan), is relaxed
from its widest rung (split, drop f, fixed fallback).  Each query
searches a path's ISA ranges once and reuses them for scans, estimates
and sigma_L probes.  It also builds each window's widening ladder once:
the two halves of a split keep their parent's window, so half or more
of the ladders a query asks for are ones it has already built.  A path
holding an id that is not an edge is rejected before partitioning.

The result carries per-sub-query samples and bookkeeping (final
sub-path lengths, scan/estimate counters) so the harness can compute
every metric of sec. 5.3 plus the Fig. 7 average sub-path length.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.cardinality import CardinalityEstimator
from repro.core.histogram import Histogram, convolve_all
from repro.core.intervals import Interval, shift_and_enlarge
from repro.core.partitioning import partition
from repro.core.splitting import relax, widen_ladder
from repro.core.spq import SPQ
from repro.index.snt import SNTIndex


@dataclass
class SubResult:
    """Final outcome of one (possibly relaxed) sub-query."""

    spq: SPQ
    xs: list[float]
    fallback: bool

    @property
    def mean(self) -> float:
        """Xbar_j — travel-time mean retrieved with the sub-query."""
        return sum(self.xs) / len(self.xs) if self.xs else 0.0


@dataclass
class QueryResult:
    """Histogram H plus the per-sub-query evidence behind it."""

    hist: Histogram
    subs: list[SubResult]
    #: forest scans made (``get_travel_times`` calls): at most one per
    #: widening ladder, none when the estimator admits no rung, so with
    #: ``beta`` set there are at most 4|P| - 1
    n_index_scans: int = 0
    #: rungs estimated as a rung-by-rung climb would: each rung up to
    #: the answering one (one ``estimate_ladder`` call per ladder)
    n_estimates: int = 0
    #: sigma steps taken, including widenings the ladder scan answered
    n_relaxations: int = 0

    @property
    def estimate(self) -> float:
        """Full-path estimate: sum of the sub-query means (sec. 5.3.1)."""
        return sum(s.mean for s in self.subs)

    @property
    def avg_subpath_len(self) -> float:
        """Average final sub-query path length (Fig. 7)."""
        if not self.subs:
            return 0.0
        return sum(len(s.spq.path) for s in self.subs) / len(self.subs)


def trip_query(index: SNTIndex, spq: SPQ, *, partition_method: str,
               split_method: str, hist_h: float = 10.0,
               estimator: CardinalityEstimator | None = None,
               exclude_d: int | None = None) -> QueryResult:
    """Procedure 6: compute the travel-time histogram for query ``spq``.

    Raises ``ValueError`` if ``spq.path`` holds an id that is not an edge.
    """
    index.net.check_path(spq.path)
    isa: dict[tuple[int, ...], np.ndarray] = {}

    def ranges(path: tuple[int, ...]) -> np.ndarray:
        """isa_ranges(path), searched once per query."""
        r = isa.get(path)
        if r is None:
            r = isa[path] = index.isa_ranges(path)
        return r

    ladders: dict[Interval, list[Interval]] = {}

    def ladder_of(interval: Interval) -> list[Interval]:
        """widen_ladder(interval), built once per query."""
        lad = ladders.get(interval)
        if lad is None:
            lad = ladders[interval] = widen_ladder(interval)
        return lad

    def card(sub: SPQ) -> int:
        """|T^P| for sigma_L probes: estimator if configured, else exact."""
        r = ranges(sub.path)
        if estimator is not None:
            return int(estimator.estimate(sub, r))
        if int((r[:, 1] - r[:, 0]).sum()) == 0:
            return 0
        m = index.forest.build_map(sub.path[0], r, sub.interval,
                                   sub.user, None, index.user_of,
                                   exclude_d, sub.timeframe)
        return len(m)

    # (sub-query, shifted?) — shift-and-enlarge is applied once per lineage
    queue: deque[tuple[SPQ, bool]] = deque(
        (q, False) for q in partition(partition_method, spq, index.net))
    subs: list[SubResult] = []
    res = QueryResult(hist=Histogram.from_values([], hist_h), subs=subs)
    s_acc = 0.0  # sum of previous sub-histograms' minima
    r_acc = 0.0  # sum of previous sub-histograms' ranges

    while queue:
        q, shifted = queue.popleft()
        if q.interval.periodic and subs and not shifted:
            q = q.with_(interval=shift_and_enlarge(q.interval, s_acc, r_acc))
            shifted = True
        # every sigma widening is a rung of the ladder; a fixed window, a
        # window at alpha_max or a sub-query without beta is one rung
        ladder = ladder_of(q.interval) if q.beta is not None else [q.interval]
        estimated = (estimator is not None and q.beta is not None
                     and q.interval.periodic)
        admitted = range(len(ladder))  # the rungs the estimator admits
        if estimated:
            est = estimator.estimate_ladder(q, ladder, ranges(q.path))
            admitted = [k for k, b in enumerate(est) if b >= q.beta]
        at = len(ladder)  # the answering rung, if any
        if admitted:
            res.n_index_scans += 1
            r = index.get_travel_times(q.path, ladder[admitted[-1]], q.user,
                                       q.beta, exclude_d, q.timeframe,
                                       ranges(q.path),
                                       [ladder[k] for k in admitted])
            if r.xs:
                at = admitted[r.rung]
        # the counters of a rung-by-rung climb: an estimate per rung up
        # to the answer, a relaxation per rung before it
        if estimated:
            res.n_estimates += min(at + 1, len(ladder))
        res.n_relaxations += at
        if at < len(ladder):
            subs.append(SubResult(q.with_(interval=ladder[at]), r.xs,
                                  r.fallback))
            s_acc += min(r.xs)
            r_acc += max(r.xs) - min(r.xs)
        else:
            queue.extendleft((nq, shifted) for nq in reversed(
                relax(q.with_(interval=ladder[-1]), split_method, card,
                      index.tmax)))

    res.hist = convolve_all(
        [Histogram.from_values(s.xs, hist_h) for s in subs])
    return res
