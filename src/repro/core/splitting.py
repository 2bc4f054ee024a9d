"""Greedy sub-query relaxation sigma (paper Procedure 1, sec. 3.3).

When a sub-query misses its cardinality requirement, sigma relaxes its
predicates in a fixed order: (1) widen the periodic interval to the next
size in A; (2) split the path in two and shrink the halves' windows back
to alpha_min — by the regular rule sigma_R (cut at floor(l/2)) or the
longest-prefix rule sigma_L (largest prefix still meeting beta, found by
binary search over a monotone cardinality predicate); (3) drop the
non-temporal filter; (4) fall back to the fixed interval [0, tmax) with
no beta.

Fixed-interval sub-queries (the "SPQ Only" workload) have no window to
widen or shrink, so they go straight to path splitting, matching the
paper's observation that such queries keep very long sub-paths.
"""
from __future__ import annotations

import math
from typing import Callable

from repro.core.intervals import DEFAULT_ALPHAS, shrink, widen
from repro.core.spq import SPQ

SPLIT_METHODS = ("regular", "longest_prefix")


def split_regular(spq: SPQ, card: Callable[[SPQ], int]) -> int:
    """sigma_R: cut position m = floor(l / 2)."""
    return len(spq.path) // 2


def split_longest_prefix(spq: SPQ, card: Callable[[SPQ], int]) -> int:
    """sigma_L: the largest m < l with |T^{P[0,m)}| >= beta (else m = 1).

    Cardinality is non-increasing in prefix length, so binary search
    over ``card`` (supplied by the caller: exact index counts, or the
    estimator when one is configured) finds the boundary in O(log l)
    probes.
    """
    l = len(spq.path)
    beta = spq.beta if spq.beta is not None else 1
    lo, hi = 1, l - 1  # invariant: answer in [lo, hi] if any prefix qualifies
    best = 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if card(spq.with_(path=spq.path[:mid])) >= beta:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def relax(spq: SPQ, split_method: str, card: Callable[[SPQ], int],
          tmax: float) -> list[SPQ]:
    """Procedure 1: widen, else split, else drop f, else fixed-interval.

    Returns the replacement sub-query sequence for ``spq``.
    """
    alpha_min, alpha_max = DEFAULT_ALPHAS[0], DEFAULT_ALPHAS[-1]
    i = spq.interval
    # 1e-6 s tolerances absorb float roundoff from widen/shift-and-enlarge
    if i.periodic and i.size < alpha_max - 1e-6:
        bigger = next((a for a in DEFAULT_ALPHAS if a > i.size + 1e-6),
                      alpha_max)
        return [spq.with_(interval=widen(i, bigger))]
    if len(spq.path) > 1:
        split_fn = (split_regular if split_method == "regular"
                    else split_longest_prefix)
        i2 = shrink(i, alpha_min) if i.periodic else i
        # probe prefixes with the window the halves will actually get
        m = split_fn(spq.with_(interval=i2), card)
        m = min(max(m, 1), len(spq.path) - 1)
        return [
            spq.with_(path=spq.path[:m], interval=i2),
            spq.with_(path=spq.path[m:], interval=i2, lo=spq.lo + m),
        ]
    if spq.user is not None:
        return [spq.with_(user=None)]
    from repro.core.intervals import all_time
    tm = tmax if math.isfinite(tmax) else math.inf
    return [spq.with_(interval=all_time(tm), user=None, beta=None,
                      timeframe=None)]
