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
the store holds prefix sums, so Eq. 2 reads a few columns of the first
segment's rows, one row per partition, at any partition size.
"""
from __future__ import annotations

import numpy as np

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
        ``isa_ranges(spq.path)`` when the caller already has it."""
        c_p = self.index.path_count(spq.path, ranges)
        if self.mode == "ISA" or c_p == 0:
            return float(c_p)
        e0 = spq.path[0]
        sel = 1.0
        if spq.interval.periodic:
            if self.mode.endswith("Acc"):
                sel *= self.index.tod_selectivity(e0, spq.interval)
            else:
                sel *= uniform_selectivity(spq.interval)
        if spq.timeframe is not None:
            sel *= self._seltf(e0, spq.timeframe)
        if spq.user is not None:
            sel *= SEL_USER
        return sel * c_p

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
