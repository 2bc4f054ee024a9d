"""Cardinality estimator for strict path queries (paper sec. 4.4).

Estimates ``beta_hat = seltod * seltf * selu * cP`` where

* ``cP = ed - st`` summed over temporal partitions — the *exact* number
  of strict traversals, read off the FM-index in O(|P| log);
* ``seltod`` — selectivity of the periodic window: Eq. 1 (uniform,
  window/24 h clamped to [0, 1]) in the *Fast* modes, Eq. 2 (time-of-day
  histogram of the first segment) in the *Acc* modes;
* ``seltf`` — selectivity of an absolute time-frame bound: Eq. 3
  (naive fraction of the segment's observed time span) in the BT modes,
  the exact CSS-tree range count in the CSS modes;
* ``selu = 1/10`` for a user predicate (the Selinger default).

Modes: ``ISA`` (cP alone), ``BT-Fast``, ``BT-Acc``, ``CSS-Fast``,
``CSS-Acc``.  The paper identifies walking the per-partition histogram
store as CSS-Acc's weakness at small partition sizes (Fig. 11b); here
the store holds prefix sums, so Eq. 2 reads a few columns of the sum of
the first segment's rows, one row per partition, at any partition size.

``trip_query`` estimates a sub-query's whole sigma widening ladder with
one :meth:`CardinalityEstimator.estimate_ladder` call; ``estimate`` is
its one-rung case.  Every mode is non-decreasing along a widening
ladder: Eq. 1 grows with the window size, Eq. 2 counts nested bucket
ranges of one column sum (a wider window's in-day ranges cover the
narrower one's buckets), and cP, seltf and selu are fixed per ladder.
So the estimator admits a suffix of the ladder, and the ladder scan's
window is the ladder's top.
"""
from __future__ import annotations

import numpy as np

from repro.core.intervals import Interval
from repro.core.spq import SPQ
from repro.index.snt import SNTIndex, uniform_selectivity

ESTIMATOR_MODES = ("ISA", "BT-Fast", "BT-Acc", "CSS-Fast", "CSS-Acc")
SEL_USER = 0.1  # Selinger et al. default for an equality predicate


class CardinalityEstimator:
    """card(Q): estimate the result cardinality of a sub-query."""

    def __init__(self, index: SNTIndex, mode: str):
        if mode not in ESTIMATOR_MODES:
            raise ValueError(f"unknown estimator mode {mode!r}")
        self.index = index
        self.mode = mode

    def estimate(self, spq: SPQ, ranges: np.ndarray | None = None) -> float:
        """beta_hat for ``spq`` (never executes the query); ``ranges`` is
        ``isa_ranges(spq.path)`` when the caller already has it.  The
        one-rung case of :meth:`estimate_ladder`."""
        return self.estimate_ladder(spq, [spq.interval], ranges)[0]

    def estimate_ladder(self, spq: SPQ, rungs: list[Interval],
                        ranges: np.ndarray | None = None) -> list[float]:
        """beta_hat of ``spq`` with its window replaced by each of
        ``rungs`` in turn: a widening ladder of periodic windows, or one
        fixed window.

        c_P, seltf and selu do not depend on the window, so they are
        computed once, and Eq. 2 sums the first segment's ToD rows once
        for all rungs.  Each value is the product that ``estimate``
        forms for that window, in the same order, so it is bit-identical
        to ``estimate(spq.with_(interval=rung))``.
        """
        c_p = self.index.path_count(spq.path, ranges)
        if self.mode == "ISA" or c_p == 0:
            return [float(c_p)] * len(rungs)
        e0 = spq.path[0]
        if not rungs[0].periodic:
            sels = [1.0] * len(rungs)
        elif self.mode.endswith("Acc"):
            sels = self.index.tod_selectivities(e0, rungs)
        else:
            sels = [uniform_selectivity(i) for i in rungs]
        if spq.timeframe is not None:
            seltf = self._seltf(e0, spq.timeframe)
            sels = [s * seltf for s in sels]
        if spq.user is not None:
            sels = [s * SEL_USER for s in sels]
        return [s * c_p for s in sels]

    def _seltf(self, e0: int, tf: tuple[float, float]) -> float:
        if self.mode.startswith("CSS"):
            cnt = self.index.timeframe_count(e0, tf[0], tf[1])
            leaves = self.index.forest.get(e0)
            if cnt is None or leaves is None or len(leaves) == 0:
                return 1.0
            return cnt / len(leaves)
        bounds = self.index.segment_time_bounds(e0)
        if bounds is None or bounds[1] <= bounds[0]:
            return 1.0
        lo = max(tf[0], bounds[0])
        hi = min(tf[1], bounds[1])
        return max(0.0, min(1.0, (hi - lo) / (bounds[1] - bounds[0])))
