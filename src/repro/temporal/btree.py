"""Bulk-loaded B+-tree — the pointer-based temporal forest backend.

The paper's baseline temporal index is an in-memory B+-tree forest
(Google cpp-btree).  This is a faithful pointer-based equivalent: leaves
hold contiguous key runs, internal nodes hold separator keys and child
pointers as Python lists.  Relative to the CSS-tree it carries real
pointer overhead (Fig. 10a: the BT forest is larger) and an extra
indirection per level (Fig. 11b: BT probes are slower), which are the
two shapes the paper reports.

Unlike the CSS-tree it does not provide an exact O(log n) range count in
the estimator (paper sec. 4.4) — the BT-* estimator modes use the naive
time-frame fraction (Eq. 3) instead — though ``lower_bound`` exists for
query processing.
"""
from __future__ import annotations

import numpy as np


class _Leaf:
    __slots__ = ("keys", "start")

    def __init__(self, keys: list[float], start: int):
        self.keys = keys
        self.start = start  # index of keys[0] in the underlying sorted array


class _Inner:
    __slots__ = ("seps", "children")

    def __init__(self, seps: list[float], children: list):
        self.seps = seps  # seps[i] = max key in children[i]
        self.children = children


class BPlusTree:
    """B+-tree bulk-loaded from an ascending key array (fanout 64)."""

    def __init__(self, keys: np.ndarray, fanout: int = 64):
        keys = np.asarray(keys, dtype=np.float64)
        if len(keys) > 1 and np.any(np.diff(keys) < 0):
            raise ValueError("BPlusTree requires ascending keys")
        self.n = len(keys)
        self.fanout = int(fanout)
        f = self.fanout
        nodes: list = [
            _Leaf(list(keys[i: i + f]), i) for i in range(0, max(1, self.n), f)
        ] or [_Leaf([], 0)]
        self._n_leaves = len(nodes)
        self._n_inner = 0
        while len(nodes) > 1:
            nxt = []
            for i in range(0, len(nodes), f):
                group = nodes[i: i + f]
                seps = [(g.keys[-1] if isinstance(g, _Leaf) else g.seps[-1])
                        if (g.keys if isinstance(g, _Leaf) else g.seps) else -np.inf
                        for g in group]
                nxt.append(_Inner(seps, group))
            self._n_inner += len(nxt)
            nodes = nxt
        self.root = nodes[0]

    def lower_bound(self, key: float) -> int:
        """Index (in the sorted key array) of the first key >= ``key``."""
        node = self.root
        while isinstance(node, _Inner):
            i = 0
            seps = node.seps
            while i < len(seps) - 1 and seps[i] < key:
                i += 1
            node = node.children[i]
        i = 0
        ks = node.keys
        while i < len(ks) and ks[i] < key:
            i += 1
        # the descent invariant (parent separator >= key) guarantees this
        # leaf contains the boundary, or is the rightmost leaf
        return node.start + i

    def range_count(self, lo: float, hi: float) -> int:
        """Number of keys in ``[lo, hi)`` (range scan endpoints)."""
        if hi <= lo:
            return 0
        return self.lower_bound(hi) - self.lower_bound(lo)

    def range_indices(self, lo: float, hi: float) -> tuple[int, int]:
        """Half-open index range of keys in ``[lo, hi)``."""
        if hi <= lo:
            return (0, 0)
        return (self.lower_bound(lo), self.lower_bound(hi))

    def nbytes(self) -> int:
        """Approximate heap footprint: nodes, python-float keys, pointers.

        Counted analytically (64 B object header + 8 B per slot for
        pointers/refs, 32 B per boxed float) rather than via gc walking;
        the point is the *relative* overhead vs the CSS directory.
        """
        per_leaf = 64 + 8 * self.fanout + 32 * self.fanout
        per_inner = 64 + 16 * self.fanout
        return self._n_leaves * per_leaf + self._n_inner * per_inner
