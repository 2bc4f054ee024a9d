"""The strict path query ``spq(P, I, f, beta)`` (paper sec. 2.3).

``path`` is the edge-id sequence; ``interval`` the temporal predicate;
``user`` the optional non-temporal filter (the ITSP vehicle id);
``beta`` the cardinality requirement (None = retrieve all);
``timeframe`` an optional absolute-time bound on top of a periodic
predicate (sec. 4.4).  ``lo`` records the sub-path's offset inside the
original query path so the weighted-error metric can align sub-query
results with ground-truth sub-path durations after arbitrary splits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.intervals import Interval


@dataclass(frozen=True)
class SPQ:
    """One (sub-)query; immutable — relaxation produces new instances."""

    path: tuple[int, ...]
    interval: Interval
    user: int | None = None
    beta: int | None = None
    timeframe: tuple[float, float] | None = None
    lo: int = 0

    def __post_init__(self) -> None:
        if len(self.path) == 0:
            raise ValueError("SPQ path must be non-empty")
        if math.isnan(self.interval.ts) or math.isnan(self.interval.te):
            raise ValueError(f"SPQ window bound is NaN: {self.interval}")

    @property
    def hi(self) -> int:
        """End offset (exclusive) of the sub-path in the original path."""
        return self.lo + len(self.path)

    def with_(self, **kw) -> "SPQ":
        """Functional update helper."""
        return replace(self, **kw)
