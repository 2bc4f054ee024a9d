"""Travel-time histograms and their discrete convolution (paper sec. 2.3).

A histogram has uniform bucket width ``h`` (seconds); bucket ``b`` covers
``[b*h, (b+1)*h)``.  Convolving two histograms adds bucket indices —
the paper's example: {[6,7):2, [7,8):1} * {[4,5):2, [5,6):1} =
{[10,11):4, [11,12):4, [12,13):1}.  Internally counts live in a dense
array with a base offset so convolution is one ``np.convolve``.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np


class Histogram:
    """Uniform-bucket histogram of travel times."""

    def __init__(self, counts: np.ndarray, base: int, h: float = 1.0):
        self.counts = np.asarray(counts, dtype=np.float64)
        self.base = int(base)  # bucket index of counts[0]
        self.h = float(h)

    @classmethod
    def from_values(cls, xs: Iterable[float], h: float = 1.0) -> "Histogram":
        """createHistogram: bucket each x into ``floor(x / h)``."""
        xs = np.asarray(list(xs), dtype=np.float64)
        if len(xs) == 0:
            return cls(np.zeros(0), 0, h)
        b = np.floor(xs / h).astype(np.int64)
        base = int(b.min())
        counts = np.bincount(b - base)
        return cls(counts.astype(np.float64), base, h)

    @property
    def total(self) -> float:
        """Total element count across buckets."""
        return float(self.counts.sum())

    def as_dict(self) -> dict[int, float]:
        """{bucket index: count} for non-empty buckets (test-friendly)."""
        return {self.base + i: float(c)
                for i, c in enumerate(self.counts) if c != 0}

    def convolve(self, other: "Histogram") -> "Histogram":
        """Discrete convolution ``H1 * H2`` (bucket indices add)."""
        if self.h != other.h:
            raise ValueError("convolution requires equal bucket widths")
        if len(self.counts) == 0:
            return other
        if len(other.counts) == 0:
            return self
        return Histogram(np.convolve(self.counts, other.counts),
                         self.base + other.base, self.h)

    def density_at(self, x: float) -> float:
        """f(x, H): fraction of mass in x's bucket (sec. 5.3.3)."""
        if self.total == 0:
            return 0.0
        b = int(np.floor(x / self.h)) - self.base
        if 0 <= b < len(self.counts):
            return float(self.counts[b]) / self.total
        return 0.0


def convolve_all(hs: list[Histogram]) -> Histogram:
    """Fold a list of histograms with ``*`` (Procedure 6 lines 13-16)."""
    if not hs:
        return Histogram(np.zeros(0), 0)
    out = hs[0]
    for h in hs[1:]:
        out = out.convolve(h)
    return out
