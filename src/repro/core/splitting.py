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

Step (1) repeats until the window reaches alpha_max; the windows it
passes through form the *widening ladder* of :func:`widen_ladder`.  The
ladder's windows share a centre and nest, so ``trip_query`` answers a
whole ladder with one scan of its widest window, and :func:`relax` only
ever takes the ladder's next rung.
"""
from __future__ import annotations

import math
from typing import Callable

from repro.core.intervals import (DEFAULT_ALPHAS, Interval, all_time, shrink,
                                  widen)
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


def widen_ladder(i: Interval) -> list[Interval]:
    """Procedure 1 step (1) applied until it no longer applies:
    ``[i, w1, w2, ...]``, each rung the previous one widened to the next
    size in A.

    Each rung is built from the previous one, so the float bounds are
    the ones a rung-by-rung relaxation produces.  A fixed interval, or a
    periodic one already at alpha_max, is its own ladder.  A widening
    that does not grow the window (bounds too large for float roundoff
    to register a pad) ends the ladder, so every ladder is finite.
    """
    alpha_max = DEFAULT_ALPHAS[-1]
    ladder = [i]
    size = i.size
    # 1e-6 s tolerances absorb float roundoff from widen/shift-and-enlarge
    while i.periodic and size < alpha_max - 1e-6:
        bigger = next((a for a in DEFAULT_ALPHAS if a > size + 1e-6),
                      alpha_max)
        w = widen(i, bigger)
        if not w.size > size:
            break
        ladder.append(w)
        i, size = w, w.size
    return ladder


def relax(spq: SPQ, split_method: str, card: Callable[[SPQ], int],
          tmax: float) -> list[SPQ]:
    """Procedure 1: widen, else split, else drop f, else fixed-interval.

    Returns the replacement sub-query sequence for ``spq``.
    """
    i = spq.interval
    ladder = widen_ladder(i)
    if len(ladder) > 1:
        return [spq.with_(interval=ladder[1])]
    if len(spq.path) > 1:
        split_fn = (split_regular if split_method == "regular"
                    else split_longest_prefix)
        i2 = shrink(i, DEFAULT_ALPHAS[0]) if i.periodic else i
        # probe prefixes with the window the halves will actually get
        m = split_fn(spq.with_(interval=i2), card)
        m = min(max(m, 1), len(spq.path) - 1)
        return [
            spq.with_(path=spq.path[:m], interval=i2),
            spq.with_(path=spq.path[m:], interval=i2, lo=spq.lo + m),
        ]
    if spq.user is not None:
        return [spq.with_(user=None)]
    tm = tmax if math.isfinite(tmax) else math.inf
    return [spq.with_(interval=all_time(tm), user=None, beta=None,
                      timeframe=None)]
