"""FM-index over one trajectory-string (temporal) partition.

Implements the spatial half of the SNT-index (paper sec. 4.1.1): given
the C counts of the trajectory string and a rank structure over its
Burrows-Wheeler transform, :meth:`FMIndex.isa_range` runs Procedure 2
(``getISARange``) — backward search — returning the half-open ISA range
``[st, ed)`` of suffixes that begin with the query path.  ``ed - st`` is
the exact number of strict traversals of the path in this partition,
which the cardinality estimator uses as ``cP``.

The paper stores the BWT in a Huffman-shaped wavelet tree (sdsl-lite)
to answer ``rank_c(Tbwt, i)`` — the occurrences of ``c`` in
``Tbwt[0, i)``.  We keep an *occ-list* instead: ``occ`` lists the BWT
positions grouped by symbol, ascending within each group, so symbol
``c``'s positions are the block ``occ[C[c]:C[c + 1]]`` and ``rank_c`` is
one binary search in it.  The answers equal a wavelet tree's, and the
size is one entry per string symbol.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fmindex.suffix_array import inverse_suffix_array, suffix_array


def symbol_counts(s: np.ndarray, alphabet_size: int) -> np.ndarray:
    """The C array: ``C[c]`` = number of symbols in T smaller than ``c``.

    Sized ``alphabet_size + 1`` so ``C[c + 1]`` is always addressable
    (Procedure 2 initialises ``ed`` with it).
    """
    counts = np.bincount(np.asarray(s, dtype=np.int64),
                         minlength=alphabet_size)
    c = np.zeros(alphabet_size + 1, dtype=np.int64)
    np.cumsum(counts, out=c[1:])
    return c


class FMIndex:
    """FM-index of an integer trajectory string (``$`` = 0 terminators).

    The served index keeps only ``C``, ``occ`` and ``n``.  ``isa`` is
    left for index construction, which reads the ISA value of every leaf
    and then deletes it.
    """

    def __init__(self, s: np.ndarray, alphabet_size: int):
        s = np.asarray(s, dtype=np.int64)
        sa = suffix_array(s)
        self.isa = inverse_suffix_array(sa)
        self.C = symbol_counts(s, alphabet_size)
        bwt = s[sa - 1]  # Tbwt[i] = T[SA[i] - 1], wrapping at SA[i] = 0
        self.occ = np.argsort(bwt, kind="stable")
        self.n = len(s)

    def isa_range(self, path: Sequence[int]) -> tuple[int, int]:
        """Procedure 2: ISA range ``[st, ed)`` of suffixes starting with path.

        Backward search: initialise with the last path symbol's C-range,
        then fold in the remaining symbols right-to-left; ``C[c] +
        rank_c(i)`` is ``C[c]`` plus the number of ``c``-positions below
        ``i``.  O(|P| log n) independent of |T|.  A path with a symbol
        outside the edge ids ``1..|Σ|-1`` (``$``, negative or unknown
        ids) matches nothing.
        """
        p = list(path)
        if not p:
            return (0, self.n)
        C, occ = self.C, self.occ
        if min(p) < 1 or max(p) >= len(C) - 1:
            return (0, 0)
        c = int(p[-1])
        st = int(C[c])
        ed = int(C[c + 1])
        for i in range(2, len(p) + 1):
            c = int(p[-i])
            lo = int(C[c])
            blk = occ[lo:C[c + 1]]
            st = lo + int(blk.searchsorted(st))
            ed = lo + int(blk.searchsorted(ed))
            if st >= ed:
                return (0, 0)
        return (st, ed)

    def memory_report(self) -> dict[str, int]:
        """Bytes per Fig.-10 component: C counter and rank structure (WT)."""
        return {"C": int(self.C.nbytes), "WT": int(self.occ.nbytes)}
