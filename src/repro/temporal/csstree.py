"""Cache-sensitive search tree (Rao & Ross, VLDB '99) over a sorted array.

A pointer-less index: the sorted key array stays as-is (append-only),
and a directory of internal nodes — each holding the max key of its
``m`` children — is packed into one flat array, parent-before-child,
so child offsets are computed arithmetically instead of being stored.
Node size defaults to 16 keys (= one 128-byte cache line of f8 keys),
matching the paper's "node size = cache line" tuning.

Used by the SNT-index as the temporal forest backend (paper sec. 4.3.1)
and by the cardinality estimator: :meth:`CSSTree.range_count` returns
the exact number of keys in ``[lo, hi)`` in O(log n), which is what
makes the CSS-Fast/CSS-Acc estimator modes exact on the time-frame
selectivity (sec. 4.4).
"""
from __future__ import annotations

from bisect import bisect_left

import numpy as np


class CSSTree:
    """Array-packed m-ary search tree over an ascending key array."""

    def __init__(self, keys: np.ndarray, node_size: int = 16):
        keys = np.asarray(keys, dtype=np.float64)
        if len(keys) > 1 and np.any(np.diff(keys) < 0):
            raise ValueError("CSSTree requires ascending keys")
        self.keys = keys
        self.m = int(node_size)
        # levels[k] holds, for level k above the leaves, the max key of
        # each block of m nodes of the level below; levels[-1] is the root.
        self.levels: list[np.ndarray] = []
        level = keys
        while len(level) > self.m:
            n_nodes = (len(level) + self.m - 1) // self.m
            last = np.minimum(np.arange(1, n_nodes + 1) * self.m, len(level))
            level = level[last - 1]
            self.levels.append(level)

    def lower_bound(self, key: float) -> int:
        """Index of the first key >= ``key``: the one-key case of the
        descent of :meth:`range_indices`."""
        return self._descend(key, None)[0]

    def range_count(self, lo: float, hi: float) -> int:
        """Exact number of keys in ``[lo, hi)`` — one descent."""
        lo_i, hi_i = self.range_indices(lo, hi)
        return hi_i - lo_i

    def range_indices(self, lo: float, hi: float) -> tuple[int, int]:
        """Half-open index range of keys in ``[lo, hi)``."""
        if hi <= lo:
            return (0, 0)
        return self._descend(lo, hi)

    def _descend(self, lo: float, hi: float | None) -> tuple[int, int]:
        """Indices of the first keys >= ``lo`` and >= ``hi`` (``lo <=
        hi``; ``hi=None`` descends ``lo`` alone) by one top-down descent
        from the root to the key array.

        At each level a bound's next node is ``node * m + child``, with
        ``child`` the first entry >= the bound, found by binary search
        within the node (``bisect`` over a memoryview, so each probe
        reads one Python float).  While both bounds are in one node,
        ``hi`` is searched only from ``lo``'s child on; below the node
        where their paths part, each bound is searched in its own node.
        A ``hi`` past the largest key is ``n`` without a descent.  A
        ``lo`` past it runs off the end of each level (empty nodes), so
        its index ends at ``>= n`` and is clamped to ``n``.
        """
        keys, m = self.keys, self.m
        n = len(keys)
        if hi is not None and (n == 0 or hi > keys[-1]):
            hi = None
        b_lo = b_hi = 0  # each bound's node index, then its child's
        for level in (*reversed(self.levels), keys):
            view, size = memoryview(level), len(level)
            first = b_lo * m
            c_lo = bisect_left(view, lo, first, min(first + m, size))
            if hi is not None:
                first = c_lo if b_hi == b_lo else b_hi * m
                b_hi = bisect_left(view, hi, first, min(b_hi * m + m, size))
            b_lo = c_lo
        return (min(n, b_lo), n if hi is None else min(n, b_hi))

    def nbytes(self) -> int:
        """Directory bytes only — the key array belongs to the leaf store."""
        return int(sum(lv.nbytes for lv in self.levels))
