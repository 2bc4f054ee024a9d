"""tripQuery — full travel-time query processing (paper Procedure 6).

Orchestrates the system of Fig. 2: partition the query with pi, adapt
later sub-queries' periodic windows with shift-and-enlarge, optionally
pre-check each sub-query with the cardinality estimator, execute it
against the SNT-index (Procedure 5), and on failure push its
sigma-relaxation back onto the queue.  Sub-query relaxations *replace*
the failed sub-query at its queue position, so results stay in path
order and the shift-and-enlarge accumulators (sum of previous minima /
ranges) remain well-defined.

The result carries per-sub-query samples and bookkeeping (final
sub-path lengths, scan/estimate counters) so the harness can compute
every metric of sec. 5.3 plus the Fig. 7 average sub-path length.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.cardinality import CardinalityEstimator
from repro.core.histogram import Histogram, convolve_all
from repro.core.intervals import shift_and_enlarge
from repro.core.partitioning import partition
from repro.core.splitting import relax
from repro.core.spq import SPQ
from repro.index.snt import SNTIndex

_MAX_STEPS = 100_000  # safety bound; Procedure 1 terminates long before


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
    n_index_scans: int = 0
    n_estimates: int = 0
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
    """Procedure 6: compute the travel-time histogram for query ``spq``."""

    def card(sub: SPQ) -> int:
        """|T^P| for sigma_L probes: estimator if configured, else exact."""
        if estimator is not None:
            return int(estimator.estimate(sub))
        ranges = index.isa_ranges(sub.path)
        if int((ranges[:, 1] - ranges[:, 0]).sum()) == 0:
            return 0
        m = index.forest.build_map(sub.path[0], ranges, sub.interval,
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

    steps = 0
    while queue:
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError("tripQuery did not converge")
        q, shifted = queue.popleft()
        if q.interval.periodic and subs and not shifted:
            q = q.with_(interval=shift_and_enlarge(q.interval, s_acc, r_acc))
            shifted = True
        if (estimator is not None and q.beta is not None
                and q.interval.periodic):
            res.n_estimates += 1
            if estimator.estimate(q) < q.beta:
                res.n_relaxations += 1
                queue.extendleft(
                    (nq, shifted) for nq in reversed(
                        relax(q, split_method, card, index.tmax)))
                continue
        res.n_index_scans += 1
        r = index.get_travel_times(q.path, q.interval, q.user, q.beta,
                                   exclude_d, q.timeframe)
        if r.xs:
            subs.append(SubResult(q, r.xs, r.fallback))
            lo, hi = min(r.xs), max(r.xs)
            s_acc += lo
            r_acc += hi - lo
        else:
            res.n_relaxations += 1
            queue.extendleft(
                (nq, shifted) for nq in reversed(
                    relax(q, split_method, card, index.tmax)))

    res.hist = convolve_all(
        [Histogram.from_values(s.xs, hist_h) for s in subs])
    return res
