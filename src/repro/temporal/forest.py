"""Temporal forest: per-segment leaves + Procedures 3 and 4.

For every network segment ``e`` the forest holds leaf records sorted by
entry timestamp ``t``: ``t -> (isa, d, row)`` (sec. 4.1.3, Fig. 4).
The paper's extended leaf also holds ``TT`` and the running TT sum ``a``
through this segment; here both are stored once, in trajectory order
(``TemporalForest.a``/``.tt``): the forest is built from record columns
in that order, and a leaf's ``row`` is its record's position there.
``isa`` is global, so it also names the temporal partition that the
paper's leaf stores (sec. 4.3.2).  ``t`` is float64; ``isa``, ``d``,
``row`` and the time-of-day order are int32, whose bounds the build
checks (``repro.index.build``).  The int32 arrays that index others
are widened to ``intp`` once per scan: the candidate positions and the
rows :meth:`TemporalForest.build_map` returns.

Periodic predicates repeat daily, so each segment also keeps a
time-of-day sort order and a tree over it: a periodic window is one or
two range scans (the pre-midnight one first) instead of the paper's
per-day scans.  The matches are the same, but they come in time-of-day
order (ties by ``t``), so ``beta`` keeps the earliest by time of day,
not by date.

``buildMap`` (Procedure 3) scans the first segment's leaves in that
order, filters by the path's ISA ranges, time and user predicates,
stops after ``beta`` matches and returns their rows.  Given a sigma
widening ladder (nested periodic windows with one centre), one scan of
the widest window holds the matches of every rung: a rung's matches are
the scan's matches whose time of day lies in the rung's own
``tod_ranges()``, in the rung's own scan order.  A match's ISA lies
in the path's range, so its trajectory traverses the whole path from
``row``, and ``probeMap`` (Procedure 4) is the gather
``a[row + |P| - 1] - (a[row] - TT[row])``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.intervals import DAY, Interval
from repro.temporal.btree import BPlusTree
from repro.temporal.csstree import CSSTree

_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


@dataclass
class SegmentLeaves:
    """Leaf arrays of one segment's temporal index (t-ascending): ``t``
    float64, ``isa``, ``d``, ``row`` and ``tod_order`` int32."""

    t: np.ndarray
    isa: np.ndarray
    d: np.ndarray
    row: np.ndarray
    backend: str = "css"
    tod_order: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        tod = self.t % DAY
        self.tod_order = np.argsort(tod, kind="stable").astype(np.int32)
        tree_cls = CSSTree if self.backend == "css" else BPlusTree
        self.t_tree = tree_cls(self.t)
        self.tod_tree = tree_cls(tod[self.tod_order])

    def __len__(self) -> int:
        return len(self.t)

    def candidates(self, interval: Interval) -> np.ndarray:
        """Leaf positions (``intp``) matching the temporal predicate, in
        scan order."""
        if not interval.periodic:
            lo, hi = self.t_tree.range_indices(interval.ts, interval.te)
            return np.arange(lo, hi, dtype=np.intp)
        parts = []
        for lo_v, hi_v in interval.tod_ranges():
            lo, hi = self.tod_tree.range_indices(lo_v, hi_v)
            parts.append(self.tod_order[lo:hi])
        return np.concatenate(parts, dtype=np.intp) if parts else _NO_ROWS

    def nbytes(self) -> tuple[int, int]:
        """(leaf array bytes, tree/auxiliary bytes) for the memory report."""
        leaf = sum(int(arr.nbytes) for arr in
                   (self.t, self.isa, self.d, self.row))
        aux = (self.tod_order.nbytes +
               self.t_tree.nbytes() + self.tod_tree.nbytes())
        if isinstance(self.tod_tree, CSSTree):
            # its key array is a ToD-ordered copy; t_tree's keys are ``t``
            aux += self.tod_tree.keys.nbytes
        return leaf, int(aux)


class TemporalForest:
    """The forest F = {Phi_e | e in E}, built from the record columns."""

    def __init__(self, e: np.ndarray, t: np.ndarray, isa: np.ndarray,
                 d: np.ndarray, tt: np.ndarray, a: np.ndarray, *,
                 backend: str = "css"):
        """One numpy column per record field, records in trajectory order
        (by ``d``, then along the trip), so a record's row is its
        position; ``a`` and ``tt`` are kept as given.  ``isa``, ``d`` and
        the rows are stored as int32: the caller keeps them below 2**31."""
        self.segments: dict[int, SegmentLeaves] = {}
        #: ``a`` and ``TT`` of every record in trajectory order; a leaf's
        #: ``row`` indexes both
        self.a = a
        self.tt = tt
        if len(e) == 0:
            return
        # rows in (e, t) order, ties in row order: a stable sort by t,
        # then a stable sort of that order by e
        o = np.argsort(t, kind="stable")
        o = o[np.argsort(e[o], kind="stable")]
        e_arr = e[o]
        # each leaf column is cast once, before the per-segment split
        cols = {"t": t[o].astype(np.float64, copy=False),
                "isa": isa[o].astype(np.int32),
                "d": d[o].astype(np.int32),
                "row": o.astype(np.int32)}
        starts = np.flatnonzero(np.r_[True, e_arr[1:] != e_arr[:-1]])
        bounds = np.append(starts, len(e_arr))
        for i, seg in enumerate(e_arr[starts]):
            sl = slice(int(bounds[i]), int(bounds[i + 1]))
            # copies that own their bytes: a slice would keep the column alive
            self.segments[int(seg)] = SegmentLeaves(
                **{k: c[sl].copy() for k, c in cols.items()},
                backend=backend)

    def get(self, e: int) -> SegmentLeaves | None:
        """Phi_e, or None if no trajectory ever traversed ``e``."""
        return self.segments.get(int(e))

    def build_map(self, e0: int, ranges_by_w: np.ndarray, interval: Interval,
                  user: int | None, beta: int | None,
                  user_of: np.ndarray | None,
                  exclude_d: int | None = None,
                  timeframe: tuple[float, float] | None = None,
                  rungs: list[Interval] | None = None,
                  answered: list[int] | None = None) -> np.ndarray:
        """Procedure 3: the leaf ``row`` of each of the first matches, as
        ``intp``.

        ``ranges_by_w`` holds the W disjoint, ascending ISA ranges of
        :meth:`FMIndex.isa_ranges`; a leaf matches the spatial predicate
        iff an odd number of their bounds are ``<= isa``.  ``timeframe``
        is the optional absolute-time bound a user may add on top of a
        periodic predicate (paper sec. 4.4, "only trajectories within the
        past year").  Scan stops after ``beta`` matches (paper line 6);
        ``beta=None`` retrieves all.  The rows come in scan order.

        ``rungs`` (with ``beta``) is a widening ladder whose widest rung
        is ``interval``; ``None`` is the one-rung ladder ``[interval]``.
        A rung's matches are the scan's matches whose time of day lies in
        the rung's ``tod_ranges()``, so the rows are the first ``beta``
        matches of the first rung that has ``beta`` of them, or of the
        widest rung when none has: the rows a scan of that rung alone
        returns.  ``answered[0]`` receives that rung's index in
        ``rungs``; a scan without candidates leaves it as it is.
        """
        leaves = self.get(e0)
        idx = _NO_ROWS if leaves is None else leaves.candidates(interval)
        if len(idx) == 0:
            return _NO_ROWS
        mask = (np.searchsorted(ranges_by_w.ravel(), leaves.isa[idx],
                                side="right") & 1).astype(bool)
        if timeframe is not None:
            t = leaves.t[idx]
            mask &= (t >= timeframe[0]) & (t < timeframe[1])
        if exclude_d is not None:
            mask &= leaves.d[idx] != exclude_d
        if user is not None:
            if user_of is None:
                raise ValueError("user predicate requires the U map")
            mask &= user_of[leaves.d[idx]] == user
        sel = idx[mask]
        # the widest rung holds every match, so only narrower ones are
        # tested, with the scan's own ``lo <= tod < hi`` comparisons
        rungs = rungs or [interval]
        tod = leaves.t[sel] % DAY if len(rungs) > 1 else None
        for k, rung in enumerate(rungs[:-1]):
            inside = np.logical_or.reduce(
                [(lo <= tod) & (tod < hi) for lo, hi in rung.tod_ranges()])
            if np.count_nonzero(inside) >= beta:
                sel = sel[inside]
                break
        else:
            k = len(rungs) - 1
        if answered is not None:
            answered[0] = k
        if beta is not None:
            sel = sel[:beta]
        return leaves.row[sel].astype(np.intp)

    def probe_map(self, e_last: int, path_len: int,
                  m: np.ndarray) -> list[float]:
        """Procedure 4: travel times ``a_last - (a0 - TT0)`` of the rows
        ``m`` that :meth:`build_map` returned, in the same order.

        Row ``m + path_len - 1`` is the record on the last segment
        ``e_last``, so ``e_last`` itself is not read.
        """
        return (self.a[m + path_len - 1] - (self.a[m] - self.tt[m])).tolist()

    def memory_report(self) -> dict[str, int]:
        """Bytes of the forest for Fig. 10a: the leaf arrays with the
        trajectory-ordered ``a`` and ``TT``, and the trees."""
        leaf = self.a.nbytes + self.tt.nbytes
        aux = 0
        for seg in self.segments.values():
            lb, ab = seg.nbytes()
            leaf += lb
            aux += ab
        return {"leaves": leaf, "trees": aux, "Forest": leaf + aux}
