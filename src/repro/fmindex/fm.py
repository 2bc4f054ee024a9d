"""One FM-index over the W trajectory strings of the temporal partitions.

Implements the spatial half of the SNT-index (paper sec. 4.1.1): given
the C counts of each partition's trajectory string and a rank structure
over its Burrows-Wheeler transform, :meth:`FMIndex.isa_ranges` runs
Procedure 2 (``getISARange``) — backward search — in all partitions at
once, returning each partition's half-open ISA range ``[st, ed)`` of
suffixes that begin with the query path.  ``ed - st`` is the exact
number of strict traversals of the path in that partition, which the
cardinality estimator sums into ``cP``.

The paper stores each BWT in a Huffman-shaped wavelet tree (sdsl-lite)
to answer ``rank_c(Tbwt, i)`` — the occurrences of ``c`` in
``Tbwt[0, i)``.  We keep one *occ-list* instead.  The W BWTs are laid
end to end (partition ``w`` starts at global position ``off_w``) and
``occ`` lists their positions grouped by symbol, ascending within each
group, so symbol ``c``'s positions in every partition are the block
``occ[B[c]:B[c + 1]]``, partition by partition.  One binary search of a
partition's global range bounds in that block is ``Σ_{v<w} count_v(c) +
rank_c``, and the offset table ``D[c, w] = off_w + C_w[c] − Σ_{v<w}
count_v(c)`` turns it into the next global bound.  A backward-search
step is therefore one ``searchsorted`` of 2W values, at any W.  The
answers equal W wavelet trees', and the size is one entry per string
symbol plus the ``D`` and ``B`` tables.
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
    """FM-index of W integer trajectory strings (``$`` = 0 terminators).

    The served index keeps only ``B``, ``D``, ``occ``, ``span``,
    ``start`` and ``n``.  ``span`` is the (2, W) array of each string's
    global ``[start; end)``, ``start`` repeats the starts in both rows (a
    same-shape subtraction costs a third of a broadcast one on arrays
    this small) and ``n`` is the total length.  ``isa`` is left for
    index construction: at global position ``span[0, w] + i`` it holds
    the partition-relative ISA value of string ``w``'s position ``i``.
    The build reads it for every leaf and then deletes it.
    """

    def __init__(self, strings: Sequence[np.ndarray], alphabet_size: int):
        strings = [np.asarray(s, dtype=np.int64) for s in strings]
        lens = np.array([len(s) for s in strings], dtype=np.int64)
        ends = np.cumsum(lens)
        self.span = np.stack([ends - lens, ends])
        self.start = np.stack([ends - lens, ends - lens])
        isas, bwts, cs = [], [], []
        for s in strings:
            sa = suffix_array(s)
            isas.append(inverse_suffix_array(sa))
            bwts.append(s[sa - 1])  # Tbwt[i] = T[SA[i] - 1], wrapping
            cs.append(symbol_counts(s, alphabet_size))
        self.isa = np.concatenate(isas)
        bwt = np.concatenate(bwts)
        self.occ = np.argsort(bwt, kind="stable")
        self.B = symbol_counts(bwt, alphabet_size)
        C = np.stack(cs, axis=1)  # C[c, w] = C_w[c]
        count = np.diff(C, axis=0)
        before = np.cumsum(count, axis=1) - count  # Σ_{v<w} count_v(c)
        self.D = self.span[0] + C[:-1] - before
        self.n = int(ends[-1])

    def isa_ranges(self, path: Sequence[int]) -> np.ndarray:
        """Procedure 2 in every string: (W, 2) ISA ranges ``[st, ed)``.

        Backward search: start from each string's whole range and fold
        in the path symbols right to left; ``g = occ-block.searchsorted(g)
        + D[c]`` moves all W ranges at once.  O(|P| log n) independent
        of |T|.  An empty path gives ``(0, n_w)``; a single symbol
        absent from string ``w`` gives ``(C_w[c], C_w[c])``; a longer
        path with no match gives ``(0, 0)``.  A path with a symbol
        outside the edge ids ``1..|Σ|-1`` (``$``, negative or unknown
        ids) matches nothing.
        """
        p = list(path)
        B, D, occ = self.B, self.D, self.occ
        if p and (min(p) < 1 or max(p) >= len(D)):
            return np.zeros((self.span.shape[1], 2), dtype=np.int64)
        g = self.span
        for c in reversed(p):
            g = occ[B[c]:B[c + 1]].searchsorted(g) + D[c]
        r = g - self.start
        if len(p) > 1:
            r *= r[0] < r[1]
        return r.T

    def memory_report(self) -> dict[str, int]:
        """Bytes per Fig.-10 component: the counts ``D`` and ``B`` and
        the string bounds (C), and the rank structure ``occ`` (WT)."""
        return {"C": int(self.D.nbytes + self.B.nbytes + self.span.nbytes
                         + self.start.nbytes),
                "WT": int(self.occ.nbytes)}
