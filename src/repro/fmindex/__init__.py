"""FM-index substrate for the SNT-index spatial component.

The paper represents the trajectory set as a string
``T = P_tr0 $ P_tr1 $ ... $`` over the alphabet ``E ∪ {$}`` and answers
"which suffixes start with path P" via FM-index backward search
(Procedure 2), with the Burrows-Wheeler transform held in a wavelet
tree.  This package provides suffix-array construction (numpy prefix
doubling) and the :class:`~repro.fmindex.fm.FMIndex` over the strings of
all temporal partitions: the counts ``B``, the offset table ``D``, one
occ-list over the BWTs (the wavelet-tree replacement — identical rank
answers in O(log n)) and backward search in every partition at once.
"""
from repro.fmindex.fm import FMIndex, symbol_counts  # noqa: F401
from repro.fmindex.suffix_array import (  # noqa: F401
    inverse_suffix_array,
    suffix_array,
)
