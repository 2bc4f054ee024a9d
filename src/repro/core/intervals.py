"""Temporal predicates: fixed and periodic intervals (paper sec. 2.3).

A fixed interval ``[ts, te)`` filters on absolute timestamps.  A
periodic interval ``[ts, te)^R`` repeats every 24 hours — e.g. "8:00 to
8:30 on every day" — so membership depends only on the time of day.
Periodic bounds may leave ``[0, DAY)`` after widening (e.g. a window
centred near midnight); :meth:`Interval.tod_ranges` normalises them to
one or two in-day ranges.

Also implements the greedy relaxation primitives of Procedure 1
(:func:`widen`, :func:`shrink`) and Dai et al.'s *shift-and-enlarge*
adaptation of later sub-queries' windows (Procedure 6 line 4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

DAY = 86_400.0

#: The paper's list A of periodic interval sizes (sec. 5.2), seconds.
DEFAULT_ALPHAS = tuple(m * 60.0 for m in (15, 30, 45, 60, 90, 120))


@dataclass(frozen=True)
class Interval:
    """Half-open temporal predicate; ``periodic`` selects the 24 h repeat."""

    ts: float
    te: float
    periodic: bool = False

    @property
    def size(self) -> float:
        """Window size alpha = te - ts (the pre-wrap width for periodic)."""
        return self.te - self.ts

    def tod_ranges(self) -> list[tuple[float, float]]:
        """In-day ``[lo, hi)`` ranges covered by a periodic interval."""
        if not self.periodic:
            raise ValueError("tod_ranges only defined for periodic intervals")
        if self.size >= DAY:
            return [(0.0, DAY)]
        lo = self.ts % DAY
        hi = lo + self.size
        if hi <= DAY:
            return [(lo, hi)]
        return [(lo, DAY), (0.0, hi - DAY)]


def fixed(ts: float, te: float) -> Interval:
    """Fixed interval ``[ts, te)``."""
    return Interval(ts, te, periodic=False)


def periodic(ts: float, te: float) -> Interval:
    """Periodic interval ``[ts, te)^R`` (bounds in seconds of day)."""
    return Interval(ts, te, periodic=True)


def all_time(tmax: float = math.inf) -> Interval:
    """The Procedure-1 fallback predicate ``[0, tmax)``."""
    return Interval(0.0, tmax, periodic=False)


def widen(i: Interval, alpha_next: float) -> Interval:
    """Procedure 1 line 3: pad both sides to reach size ``alpha_next``.

    ``widen([ts, te)^R, a') = [ts - (a' - a)/2, te + (a' - a)/2)^R``.
    """
    pad = (alpha_next - i.size) / 2.0
    return Interval(i.ts - pad, i.te + pad, i.periodic)


def shrink(i: Interval, alpha_min: float) -> Interval:
    """Procedure 1 line 7: centre-preserving reduction to ``alpha_min``."""
    centre = (i.ts + i.te) / 2.0
    return Interval(centre - alpha_min / 2.0, centre + alpha_min / 2.0,
                    i.periodic)


def shift_and_enlarge(i: Interval, s: float, r: float) -> Interval:
    """Dai et al. adaptation for the i-th sub-query (Procedure 6 line 4).

    Shift the window start by ``s`` (sum of previous sub-histograms'
    minima — the earliest a vehicle can arrive at this sub-path) and
    enlarge it by ``r`` (sum of previous ranges max-min).  The paper's
    line 4 writes ``[ts + Si, te + Ri)``, which is not an enlargement
    whenever ``Si > Ri``; we implement the stated intent,
    ``[ts + s, te + s + r)``.
    """
    return Interval(i.ts + s, i.te + s + r, i.periodic)
