"""Suffix-array construction by numpy prefix doubling.

The paper builds its suffix array with the induced-sorting sais-lite
library (C).  :func:`suffix_array` is a driver-side numpy prefix
doubling, O(n log n) rounds of ``lexsort``; it handles the
multi-million-symbol trajectory strings of the bench scale in seconds.

It sorts *all* suffixes of the full string including the ``$``
terminators, which (being the smallest symbol) land at the front of the
order — matching the paper's Figure 3 layout.
"""
from __future__ import annotations

import numpy as np


def suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array of integer string ``s`` by prefix doubling.

    ``sa[j]`` is the start position of the j-th lexicographically
    smallest suffix.  Out-of-range second keys compare smaller than any
    real rank (shorter suffix sorts first given equal prefix), which is
    correct here because every trajectory ends with the unique-per-
    position ``$``-terminated tail ordering already resolved by ranks.
    """
    s = np.asarray(s, dtype=np.int64)
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.unique(s, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r_sorted = rank[order]
        k2_sorted = key2[order]
        bump = np.zeros(n, dtype=np.int64)
        bump[1:] = ((r_sorted[1:] != r_sorted[:-1]) |
                    (k2_sorted[1:] != k2_sorted[:-1])).astype(np.int64)
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(bump)
        rank = new_rank
        # ranks unique <=> comparison fully resolved all suffixes; with
        # k doubling each round this terminates within ceil(log2 n)+1.
        if rank[order[-1]] == n - 1:
            return order.astype(np.int64)
        k *= 2


def inverse_suffix_array(sa: np.ndarray) -> np.ndarray:
    """ISA with ``isa[sa[j]] = j`` (paper sec. 4.1.1)."""
    isa = np.empty(len(sa), dtype=np.int64)
    isa[sa] = np.arange(len(sa), dtype=np.int64)
    return isa

