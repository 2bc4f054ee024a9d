"""FM-index over one trajectory-string (temporal) partition.

Implements the spatial half of the SNT-index (paper sec. 4.1.1): given
the Burrows-Wheeler transform and the C counts of the trajectory string,
:meth:`FMIndex.isa_range` runs Procedure 2 (``getISARange``) — backward
search — returning the half-open ISA range ``[st, ed)`` of suffixes that
begin with the query path.  ``ed - st`` is the exact number of strict
traversals of the path in this partition, which the cardinality
estimator uses as ``cP``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fmindex.bwt import OccRank, bwt_from_sa, symbol_counts
from repro.fmindex.suffix_array import inverse_suffix_array, suffix_array


class FMIndex:
    """FM-index of an integer trajectory string (``$`` = 0 terminators).

    The served index keeps only ``C``, the rank structure and ``n``.
    ``isa`` is left for index construction, which reads the ISA value of
    every leaf and then deletes it.
    """

    def __init__(self, s: np.ndarray, alphabet_size: int):
        s = np.asarray(s, dtype=np.int64)
        sa = suffix_array(s)
        self.isa = inverse_suffix_array(sa)
        self.C = symbol_counts(s, alphabet_size)
        self.rank = OccRank(bwt_from_sa(s, sa))
        self.n = len(s)

    def isa_range(self, path: Sequence[int]) -> tuple[int, int]:
        """Procedure 2: ISA range ``[st, ed)`` of suffixes starting with path.

        Backward search: initialise with the last path symbol's C-range,
        then fold in the remaining symbols right-to-left via two rank
        queries per symbol.  O(|P| log) independent of |T|.  A path with a
        symbol outside the edge ids ``1..|Σ|-1`` (``$``, negative or
        unknown ids) matches nothing.
        """
        p = list(path)
        if not p:
            return (0, self.n)
        if min(p) < 1 or max(p) >= len(self.C) - 1:
            return (0, 0)
        c = int(p[-1])
        st = int(self.C[c])
        ed = int(self.C[c + 1])
        for i in range(2, len(p) + 1):
            c = int(p[-i])
            st = int(self.C[c]) + self.rank.rank(c, st)
            ed = int(self.C[c]) + self.rank.rank(c, ed)
            if st >= ed:
                return (0, 0)
        return (st, ed)

    def memory_report(self) -> dict[str, int]:
        """Bytes per Fig.-10 component: C counter and rank structure (WT)."""
        return {"C": int(self.C.nbytes), "WT": self.rank.nbytes()}
