"""The adapted SNT-index serving structure (paper sec. 4).

Holds one FM-index over the trajectory strings of all ``W`` temporal
partitions; one shared temporal forest whose leaves' global ISA values
name their partition; the associative container ``U`` (trajectory ->
user); and the time-of-day histogram store used by the estimator.

:meth:`SNTIndex.get_travel_times` is Procedure 5: spatial filtering via
the path's per-partition ISA ranges, ``buildMap`` on the first segment,
cardinality check for periodic intervals, ``probeMap`` on the last
segment, and the speed-limit ``estimateTT`` fallback for single
segments with no data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.intervals import DAY, Interval
from repro.fmindex.fm import FMIndex
from repro.network.graph import RoadNetwork
from repro.temporal.forest import TemporalForest

#: Width of a time-of-day histogram bucket, seconds (144 buckets a day).
TOD_BUCKET = 600.0


def uniform_selectivity(interval: Interval) -> float:
    """Eq. 1: the window's share of a day, clamped to [0, 1] so that an
    inverted window selects nothing and one of 24 h or more everything."""
    return min(1.0, max(0.0, interval.size / DAY))


@dataclass
class TravelTimeResult:
    """Outcome of one sub-query: samples, or the speed-limit fallback."""

    xs: list[float]
    fallback: bool = False
    #: index in the scanned ladder's rungs of the rung whose own scan
    #: gives ``xs``: the first with ``beta`` matches (0 for one rung)
    rung: int = 0


class SNTIndex:
    """In-memory adapted SNT-index over ``W`` temporal partitions."""

    def __init__(self, net: RoadNetwork, fm: FMIndex,
                 forest: TemporalForest, user_of: np.ndarray,
                 tod_hist: np.ndarray, tod_first: np.ndarray, tmax: float):
        self.net = net
        #: the FM-index over all W partition strings, as a one-element
        #: list because perfbench reads ``index.fms``
        self.fms = [fm]
        self.forest = forest
        #: U: ``user_of[d]`` is trajectory d's user (int32, -1 for an id
        #: with no trajectory)
        self.user_of = user_of
        #: ToD store: one int32 row per (segment, partition) pair with
        #: entries, in (e, w) order, of inclusive prefix sums of its bucket
        #: counts; segment e's rows are
        #: ``tod_hist[tod_first[e]:tod_first[e + 1]]``
        self.tod_hist = tod_hist
        self.tod_first = tod_first
        self.tmax = float(tmax)

    @property
    def n_partitions(self) -> int:
        return self.fms[0].span.shape[1]

    # -- spatial component ------------------------------------------------
    def isa_ranges(self, path) -> np.ndarray:
        """(W, 2) array of per-partition global ISA ranges [st, ed)."""
        return self.fms[0].isa_ranges(path)

    def path_count(self, path, ranges: np.ndarray | None = None) -> int:
        """Exact strict-traversal count c_P = sum_w (ed_w - st_w), from
        ``ranges`` when the caller already has ``isa_ranges(path)``."""
        r = self.isa_ranges(path) if ranges is None else ranges
        return int((r[:, 1] - r[:, 0]).sum())

    # -- Procedure 5 ------------------------------------------------------
    def get_travel_times(self, path, interval: Interval,
                         user: int | None = None, beta: int | None = None,
                         exclude_d: int | None = None,
                         timeframe: tuple[float, float] | None = None,
                         ranges: np.ndarray | None = None,
                         rungs: list[Interval] | None = None
                         ) -> TravelTimeResult:
        """getTravelTimes: all/first-beta travel times of strict traversals.

        Mirrors Procedure 5: empty ISA range short-circuits without any
        temporal scan; for *periodic* intervals an under-beta map aborts
        (the caller then relaxes the predicates), and ``buildMap`` takes
        that abort itself, returning no rows; fixed-interval queries
        return whatever matched; a data-less single segment falls back
        to ``estimateTT``.  A path holding an id that is not an edge of
        the network (edge ids are ``1..n_edges``) raises ``ValueError``:
        no relaxation could ever answer it.

        ``ranges`` is ``isa_ranges(path)`` when the caller already has
        it.  ``rungs`` (with ``beta``) is a widening ladder, or a
        subsequence of one, ending at ``interval``; ``None`` is the
        one-rung ladder.  One scan answers the first rung with ``beta``
        matches, as a scan of that rung alone would, and ``rung`` says
        which; an empty result of a periodic ladder means no rung had
        them.
        """
        path = list(path)
        if ranges is None:
            ranges = self.isa_ranges(path)
        if int((ranges[:, 1] - ranges[:, 0]).sum()) == 0:
            self.net.check_path(path)
            if len(path) == 1:
                return TravelTimeResult([self.net.estimate_tt(path[0])],
                                        fallback=True)
            return TravelTimeResult([])
        at = [0]
        m = self.forest.build_map(path[0], ranges, interval, user, beta,
                                  self.user_of, exclude_d, timeframe,
                                  rungs, at)
        if beta is not None and len(m) < beta and interval.periodic:
            return TravelTimeResult([])
        xs = self.forest.probe_map(path[-1], len(path), m)
        if not xs and len(path) == 1:
            return TravelTimeResult([self.net.estimate_tt(path[0])],
                                    fallback=True, rung=at[0])
        return TravelTimeResult(xs, rung=at[0])

    # -- estimator support ------------------------------------------------
    def tod_selectivities(self, e: int,
                          rungs: list[Interval]) -> list[float]:
        """Eq. 2 per window: fraction of segment entries inside it.

        Sums segment ``e``'s rows of the prefix-sum store (one per
        partition) once; the last column of the sum is the total, and a
        window's count is the difference of two bounding columns per
        in-day range.  The two ranges of a window just short of a day can
        share a bucket and count it twice, so the sum is capped at 1.  A
        window of size <= 0 selects nothing, as in Eq. 1.  A segment with
        no entries, or an id outside ``0..|Σ|-1``, gets the uniform Eq. 1.
        """
        first = self.tod_first
        if not 0 <= e < len(first) - 1:
            return [uniform_selectivity(i) for i in rungs]
        # exact integer column sums: the same counts for every rung
        cum = self.tod_hist[first[e]:first[e + 1]].sum(axis=0).tolist()
        tot = cum[-1]
        if tot == 0:
            return [uniform_selectivity(i) for i in rungs]
        out = []
        for interval in rungs:
            sel = 0
            for lo, hi in interval.tod_ranges():
                if hi <= lo:
                    continue
                b0 = int(lo // TOD_BUCKET)
                b1 = min(len(cum), math.ceil(hi / TOD_BUCKET))
                if b1 > b0:
                    sel += cum[b1 - 1] - (cum[b0 - 1] if b0 > 0 else 0)
            out.append(min(1.0, sel / tot))
        return out

    def segment_time_bounds(self, e: int) -> tuple[float, float] | None:
        """Earliest/latest entry timestamps of segment ``e`` (Eq. 3)."""
        leaves = self.forest.get(e)
        if leaves is None or len(leaves) == 0:
            return None
        return float(leaves.t[0]), float(leaves.t[-1])

    def timeframe_count(self, e: int, ts: float, te: float) -> int | None:
        """Exact entries of ``e`` with timestamp in [ts, te) — CSS modes."""
        leaves = self.forest.get(e)
        if leaves is None:
            return None
        return leaves.t_tree.range_count(ts, te)

    # -- memory accounting (Fig. 10) -------------------------------------
    def memory_report(self) -> dict[str, int]:
        """Bytes per component: C, WT (rank structure), user map, Forest
        and the ToD histogram store actually held."""
        rep = self.fms[0].memory_report()
        rep["user"] = int(self.user_of.nbytes)
        rep["Forest"] = self.forest.memory_report()["Forest"]
        rep["ToD"] = int(self.tod_hist.nbytes + self.tod_first.nbytes)
        return rep

    def tod_store_bytes(self, h_seconds: float) -> int:
        """Fig. 10b: ToD-histogram store size at bucket width ``h_seconds``.

        The store held, with ``ceil(DAY / h)`` buckets of
        ``tod_hist.itemsize`` bytes in each (segment, partition) row, plus
        ``tod_first``; at ``h = TOD_BUCKET`` it is ``memory_report()["ToD"]``.
        """
        n_buckets = int(np.ceil(DAY / h_seconds))
        return (len(self.tod_hist) * n_buckets * self.tod_hist.itemsize +
                int(self.tod_first.nbytes))
