"""Suffix-array construction by numpy prefix doubling.

The paper builds its suffix array with the induced-sorting sais-lite
library (C).  :func:`suffix_array` is a driver-side numpy prefix
doubling: each of its O(log n) rounds packs a suffix's (rank, rank k
positions on) pair into one int64 key and sorts it with one
``argsort``.  It handles the million-symbol trajectory strings of the
bench scale in well under a second.

It sorts *all* suffixes of the full string including the ``$``
terminators, which (being the smallest symbol) land at the front of the
order — matching the paper's Figure 3 layout.
"""
from __future__ import annotations

import numpy as np


def check_length(n: int) -> None:
    """Raise ``ValueError`` if a string of length ``n`` would overflow
    :func:`suffix_array`'s int64 doubling key, whose largest value is
    ``(n - 1) * (n + 1) + n = n**2 + n - 1``: from n = 3,037,000,500 on."""
    n = int(n)  # Python ints do not wrap
    if n * n + n - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"string of length {n} is too long for the "
                         "int64 prefix-doubling key")


def suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array of integer string ``s`` by prefix doubling.

    ``sa[j]`` is the start position of the j-th lexicographically
    smallest suffix.  Round ``k`` orders suffixes by their first ``2k``
    symbols through the key ``rank[i] * (n + 1) + rank[i + k] + 1``, with
    ``0`` in place of ``rank[i + k] + 1`` past the end, so a suffix that
    ends first sorts first given an equal prefix.  The order among equal
    keys does not matter: ranks come from the key values, and the last
    round, whose order is returned, has all keys distinct.
    """
    s = np.asarray(s, dtype=np.int64)
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    check_length(n)
    rank = np.unique(s, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        key = rank * (n + 1)
        if k < n:
            key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        ks = key[order]
        bump = np.empty(n, dtype=np.int64)
        bump[0] = 0
        np.not_equal(ks[1:], ks[:-1], out=bump[1:])
        np.cumsum(bump, out=bump)
        # ranks unique <=> comparison fully resolved all suffixes; with
        # k doubling each round this terminates within ceil(log2 n)+1.
        if bump[-1] == n - 1:
            return order.astype(np.int64)
        rank[order] = bump
        k *= 2


def inverse_suffix_array(sa: np.ndarray) -> np.ndarray:
    """ISA with ``isa[sa[j]] = j`` (paper sec. 4.1.1)."""
    isa = np.empty(len(sa), dtype=np.int64)
    isa[sa] = np.arange(len(sa), dtype=np.int64)
    return isa
