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
        ivl = self.interval
        if not (math.isfinite(ivl.ts) and math.isfinite(ivl.te)):
            if math.isnan(ivl.ts) or math.isnan(ivl.te):
                raise ValueError(f"SPQ window bound is NaN: {ivl}")
            # a periodic window's relaxations use its centre and size,
            # which an infinite bound leaves undefined; a fixed window
            # keeps +-inf (the all_time fallback)
            if ivl.periodic:
                raise ValueError(
                    f"periodic SPQ window bound is not finite: {ivl}")

    @property
    def hi(self) -> int:
        """End offset (exclusive) of the sub-path in the original path."""
        return self.lo + len(self.path)

    def with_(self, **kw) -> "SPQ":
        """Functional update helper."""
        return replace(self, **kw)
