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
        """Index of the first key >= ``key`` via top-down node descent."""
        n = len(self.keys)
        if n == 0:
            return 0
        block = 0  # node index at the current level
        for level in reversed(self.levels):
            node = level[block * self.m: (block + 1) * self.m]
            # first child whose max >= key; past-the-end -> stay right
            child = int(np.searchsorted(node, key, side="left"))
            if child >= len(node):
                return n
            block = block * self.m + child
        lo = block * self.m
        node = self.keys[lo: lo + self.m]
        return min(n, lo + int(np.searchsorted(node, key, side="left")))

    def range_count(self, lo: float, hi: float) -> int:
        """Exact number of keys in ``[lo, hi)`` — two descents."""
        if hi <= lo:
            return 0
        return self.lower_bound(hi) - self.lower_bound(lo)

    def range_indices(self, lo: float, hi: float) -> tuple[int, int]:
        """Half-open index range of keys in ``[lo, hi)``."""
        if hi <= lo:
            return (0, 0)
        return (self.lower_bound(lo), self.lower_bound(hi))

    def nbytes(self) -> int:
        """Directory bytes only — the key array belongs to the leaf store."""
        return int(sum(lv.nbytes for lv in self.levels))
