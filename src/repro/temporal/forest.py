"""Temporal forest: per-segment extended leaves + Procedures 3 and 4.

For every network segment ``e`` the forest holds the paper's extended
leaf records sorted by entry timestamp ``t``:
``t -> (isa, d, TT, a, seq, w)`` where ``a`` is the running travel-time
sum from the trajectory start through this segment and ``w`` the
temporal-partition id (sec. 4.1.3, 4.3.2, Fig. 4).

Periodic predicates repeat daily, so each segment additionally keeps a
time-of-day sort order and a second tree over it; a periodic window then
becomes one or two contiguous range scans instead of one scan per day —
an adaptation of the paper's per-repetition B+-tree scans that preserves
scan order and results.

``buildMap`` (Procedure 3) scans the first segment's leaves in scan
order, filters by ISA range (per partition), time predicate and user
predicate, stops after ``beta`` matches, and maps ``(d, seq)`` to the
antecedent aggregate ``a - TT``.  ``probeMap`` (Procedure 4) resolves
each mapped trajectory at the last segment via a (d, seq)-sorted key
array — functionally identical to the paper's leaf scan.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.intervals import DAY, Interval
from repro.temporal.btree import BPlusTree
from repro.temporal.csstree import CSSTree

#: (d, seq) composite key stride; paths are far shorter than 2^20 segments.
_SEQ_STRIDE = 1 << 20


@dataclass
class SegmentLeaves:
    """Extended leaf arrays of one segment's temporal index (t-ascending)."""

    t: np.ndarray
    isa: np.ndarray
    d: np.ndarray
    tt: np.ndarray
    a: np.ndarray
    seq: np.ndarray
    w: np.ndarray
    backend: str = "css"
    tod_order: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        tod = self.t % DAY
        self.tod_order = np.argsort(tod, kind="stable").astype(np.int64)
        tree_cls = CSSTree if self.backend == "css" else BPlusTree
        self.t_tree = tree_cls(self.t)
        self.tod_tree = tree_cls(tod[self.tod_order])
        key = self.d.astype(np.int64) * _SEQ_STRIDE + self.seq.astype(np.int64)
        self._dseq_order = np.argsort(key, kind="stable")
        self._dseq_sorted = key[self._dseq_order]

    def __len__(self) -> int:
        return len(self.t)

    def candidates(self, interval: Interval) -> np.ndarray:
        """Leaf row indices matching the temporal predicate, in scan order."""
        if not interval.periodic:
            lo, hi = self.t_tree.range_indices(interval.ts, interval.te)
            return np.arange(lo, hi, dtype=np.int64)
        parts = []
        for lo_v, hi_v in interval.tod_ranges():
            lo, hi = self.tod_tree.range_indices(lo_v, hi_v)
            parts.append(self.tod_order[lo:hi])
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def find(self, d: int, seq: int) -> int:
        """Row index of trajectory ``d``'s record at sequence ``seq``, or -1."""
        key = int(d) * _SEQ_STRIDE + int(seq)
        j = int(np.searchsorted(self._dseq_sorted, key, side="left"))
        if j < len(self._dseq_sorted) and self._dseq_sorted[j] == key:
            return int(self._dseq_order[j])
        return -1

    def nbytes(self) -> tuple[int, int]:
        """(leaf array bytes, tree/auxiliary bytes) for the memory report."""
        leaf = sum(int(arr.nbytes) for arr in
                   (self.t, self.isa, self.d, self.tt, self.a, self.seq, self.w))
        aux = (self.tod_order.nbytes +
               self._dseq_order.nbytes + self._dseq_sorted.nbytes +
               self.t_tree.nbytes() + self.tod_tree.nbytes())
        if isinstance(self.tod_tree, CSSTree):
            # its key array is a ToD-ordered copy; t_tree's keys are ``t``
            aux += self.tod_tree.keys.nbytes
        return leaf, int(aux)


class TemporalForest:
    """The forest F = {Phi_e | e in E}, built from the collected leaf table."""

    def __init__(self, leaf_table, backend: str = "css"):
        """``leaf_table``: pandas DataFrame with columns
        ``e, t, isa, d, tt, a, seq, w`` (any row order)."""
        self.backend = backend
        self.segments: dict[int, SegmentLeaves] = {}
        if len(leaf_table) == 0:
            return
        tbl = leaf_table.sort_values(["e", "t"], kind="stable")
        e_arr = tbl["e"].to_numpy()
        cols = {c: tbl[c].to_numpy() for c in ("t", "isa", "d", "tt", "a", "seq", "w")}
        uniq, starts = np.unique(e_arr, return_index=True)
        bounds = np.append(starts, len(e_arr))
        for i, e in enumerate(uniq):
            sl = slice(int(bounds[i]), int(bounds[i + 1]))
            self.segments[int(e)] = SegmentLeaves(
                t=cols["t"][sl].astype(np.float64),
                isa=cols["isa"][sl].astype(np.int64),
                d=cols["d"][sl].astype(np.int64),
                tt=cols["tt"][sl].astype(np.float64),
                a=cols["a"][sl].astype(np.float64),
                seq=cols["seq"][sl].astype(np.int64),
                w=cols["w"][sl].astype(np.int64),
                backend=backend,
            )

    def get(self, e: int) -> SegmentLeaves | None:
        """Phi_e, or None if no trajectory ever traversed ``e``."""
        return self.segments.get(int(e))

    def build_map(self, e0: int, ranges_by_w: np.ndarray, interval: Interval,
                  user: int | None, beta: int | None,
                  user_of: np.ndarray | None,
                  exclude_d: int | None = None,
                  timeframe: tuple[float, float] | None = None
                  ) -> dict[tuple[int, int], float]:
        """Procedure 3: map ``(d, seq) -> a - TT`` for the first matches.

        ``ranges_by_w`` is a ``(W, 2)`` array of per-partition ISA ranges
        ``[st, ed)``; a leaf matches the spatial predicate iff its own
        partition's range contains its ``isa``.  ``timeframe`` is the
        optional absolute-time bound a user may add on top of a periodic
        predicate (paper sec. 4.4, "only trajectories within the past
        year").  Scan stops after ``beta`` matches (paper line 6);
        ``beta=None`` retrieves all.
        """
        leaves = self.get(e0)
        if leaves is None:
            return {}
        idx = leaves.candidates(interval)
        if len(idx) == 0:
            return {}
        if timeframe is not None:
            t = leaves.t[idx]
            idx = idx[(t >= timeframe[0]) & (t < timeframe[1])]
            if len(idx) == 0:
                return {}
        w = leaves.w[idx]
        isa = leaves.isa[idx]
        st = ranges_by_w[w, 0]
        ed = ranges_by_w[w, 1]
        mask = (isa >= st) & (isa < ed)
        if exclude_d is not None:
            mask &= leaves.d[idx] != exclude_d
        if user is not None:
            if user_of is None:
                raise ValueError("user predicate requires the U map")
            mask &= user_of[leaves.d[idx]] == user
        sel = idx[mask]
        if beta is not None:
            sel = sel[:beta]
        diff = leaves.a[sel] - leaves.tt[sel]
        return {(int(dd), int(ss)): float(df)
                for dd, ss, df in zip(leaves.d[sel], leaves.seq[sel], diff)}

    def probe_map(self, e_last: int, path_len: int,
                  m: dict[tuple[int, int], float]) -> list[float]:
        """Procedure 4: travel times ``a_last - diff`` for mapped entries."""
        leaves = self.get(e_last)
        if leaves is None or not m:
            return []
        xs: list[float] = []
        for (d, seq0), diff in m.items():
            j = leaves.find(d, seq0 + path_len - 1)
            if j >= 0:
                xs.append(float(leaves.a[j]) - diff)
        return xs

    def memory_report(self) -> dict[str, int]:
        """Bytes of the forest (leaf arrays + trees) for Fig. 10a."""
        leaf = aux = 0
        for seg in self.segments.values():
            lb, ab = seg.nbytes()
            leaf += lb
            aux += ab
        return {"leaves": leaf, "trees": aux, "Forest": leaf + aux}
