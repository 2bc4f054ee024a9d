"""The adapted SNT-index serving structure (paper sec. 4).

Holds one FM-index over the trajectory strings of all ``W`` temporal
partitions; one shared temporal forest whose leaves carry the partition
id; the associative container ``U`` (trajectory -> user); and the
time-of-day histogram store used by the cardinality estimator.

:meth:`SNTIndex.get_travel_times` is Procedure 5: spatial filtering via
per-partition ISA ranges, ``buildMap`` on the first segment,
cardinality check for periodic intervals, ``probeMap`` on the last
segment, and the speed-limit ``estimateTT`` fallback for single
segments with no data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.intervals import DAY, Interval
from repro.fmindex.fm import FMIndex
from repro.network.graph import RoadNetwork
from repro.temporal.forest import TemporalForest

#: Width of a time-of-day histogram bucket, seconds (144 buckets a day).
TOD_BUCKET = 600.0


@dataclass
class TravelTimeResult:
    """Outcome of one sub-query: samples, or the speed-limit fallback."""

    xs: list[float]
    fallback: bool = False


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
        self.user_of = user_of
        #: ToD store: one row per (segment, partition) pair with entries,
        #: in (e, w) order, of inclusive prefix sums of its bucket counts;
        #: segment e's rows are ``tod_hist[tod_first[e]:tod_first[e + 1]]``
        self.tod_hist = tod_hist
        self.tod_first = tod_first
        self.tmax = float(tmax)

    @property
    def n_partitions(self) -> int:
        return self.fms[0].span.shape[1]

    # -- spatial component ------------------------------------------------
    def isa_ranges(self, path) -> np.ndarray:
        """(W, 2) array of per-partition ISA ranges [st, ed) for ``path``."""
        return self.fms[0].isa_ranges(path)

    def path_count(self, path) -> int:
        """Exact strict-traversal count c_P = sum_w (ed_w - st_w)."""
        r = self.isa_ranges(path)
        return int((r[:, 1] - r[:, 0]).sum())

    # -- Procedure 5 ------------------------------------------------------
    def get_travel_times(self, path, interval: Interval,
                         user: int | None = None, beta: int | None = None,
                         exclude_d: int | None = None,
                         timeframe: tuple[float, float] | None = None
                         ) -> TravelTimeResult:
        """getTravelTimes: all/first-beta travel times of strict traversals.

        Mirrors Procedure 5: empty ISA range short-circuits without any
        temporal scan; for *periodic* intervals an under-beta map aborts
        (the caller then relaxes the predicates); fixed-interval queries
        return whatever matched; a data-less single segment falls back
        to ``estimateTT``.  A path holding an id that is not an edge of
        the network (edge ids are ``1..n_edges``) raises ``ValueError``:
        no relaxation could ever answer it.
        """
        path = list(path)
        ranges = self.isa_ranges(path)
        if int((ranges[:, 1] - ranges[:, 0]).sum()) == 0:
            bad = [e for e in path if not 1 <= e <= self.net.n_edges]
            if bad:
                raise ValueError(f"unknown edge id {bad[0]} in path {path}")
            if len(path) == 1:
                return TravelTimeResult([self.net.estimate_tt(path[0])],
                                        fallback=True)
            return TravelTimeResult([])
        m = self.forest.build_map(path[0], ranges, interval, user, beta,
                                  self.user_of, exclude_d, timeframe)
        if beta is not None and len(m) < beta and interval.periodic:
            return TravelTimeResult([])
        xs = self.forest.probe_map(path[-1], len(path), m)
        if not xs and len(path) == 1:
            return TravelTimeResult([self.net.estimate_tt(path[0])],
                                    fallback=True)
        return TravelTimeResult(xs)

    # -- estimator support ------------------------------------------------
    def tod_selectivity(self, e: int, interval: Interval) -> float:
        """Eq. 2: fraction of segment entries inside the periodic window.

        Sums, over segment ``e``'s rows of the prefix-sum store (one per
        partition), the last column for the total and the two bounding
        columns of each in-day range for the window.  A segment with no
        entries, or an id outside ``0..|Σ|-1``, gets the uniform Eq. 1.
        """
        first = self.tod_first
        if not 0 <= e < len(first) - 1:
            return interval.size / DAY
        rows = self.tod_hist[first[e]:first[e + 1]]
        tot = rows[:, -1].sum()
        if tot == 0:
            return interval.size / DAY
        sel = 0
        for lo, hi in interval.tod_ranges():
            b0 = int(lo // TOD_BUCKET)
            b1 = min(rows.shape[1], int(np.ceil(hi / TOD_BUCKET)))
            if b1 > b0:
                sel += rows[:, b1 - 1].sum()
                if b0 > 0:
                    sel -= rows[:, b0 - 1].sum()
        return float(sel / tot)

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

        One dense array of ``ceil(DAY / h)`` 8-byte buckets per
        (non-empty partition, segment) pair.
        """
        n_buckets = int(np.ceil(DAY / h_seconds))
        return len(self.tod_hist) * (n_buckets * 8 + 16)
