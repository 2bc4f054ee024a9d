"""SNT-index construction (paper sec. 4.1).

:func:`build_index` collects the traversal columns ``d, u, seq, e, t,
tt`` of a Spark DataFrame to the driver, and :func:`build_index_local`,
the one assembly, builds the index from them as a pandas table.

It puts the records in ``(d, seq)`` order (Spark's collect order is
arbitrary), the one record order from here to the probe: it requires
each trajectory's ``seq`` to be exactly ``0..len-1``, takes each
trajectory's start time ``t0 = min(t)`` and length, and computes the
running aggregate ``a`` (sec. 4.1.3) as a left-to-right sum of ``tt``
along each trajectory.  The temporal partition is ``w = floor(t0 /
partition_span)`` (sec. 4.3.2), densified to ``0..W-1`` in time order.
Trajectories are laid out in ``(w, t0, d)`` order, each followed by one
``$`` terminator, so the W partition strings lie end to end and record
``seq`` of trajectory ``d`` sits at ``offset[d] + seq``, with
``offset`` the exclusive running sum of ``len + 1``.  One FM-index is
built over the W strings, each leaf's global ISA value (which names its
partition) is read back by position, and the forest (over the records
in their ``(d, seq)`` order), the U map and the ToD histogram store are
constructed.

The leaf ``isa``, ``d`` and ``row``, the time-of-day orders, the ToD
store and the U map are int32.  Before any of them is built,
:func:`check_int32` raises ``ValueError`` when the record count, the
largest ``d`` or ``u``, or the string length (which bounds ``isa`` and
``row``) exceeds 2**31 - 1; nothing wraps.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.intervals import DAY
from repro.fmindex.fm import FMIndex
from repro.index.snt import TOD_BUCKET, SNTIndex
from repro.network.graph import RoadNetwork
from repro.temporal.forest import TemporalForest

#: Largest value of the index's int32 arrays.
INT32_MAX = int(np.iinfo(np.int32).max)


def check_int32(what: str, n: int) -> None:
    """Raise ``ValueError`` if ``n`` exceeds :data:`INT32_MAX`, so that
    the int32 index arrays it bounds would wrap."""
    n = int(n)  # Python ints do not wrap
    if n > INT32_MAX:
        raise ValueError(f"{what} {n} exceeds {INT32_MAX}, the bound of "
                         "the index's int32 arrays")


def build_index(spark: SparkSession, net: RoadNetwork, traversals: DataFrame,
                *, partition_days: float | None = None,
                backend: str = "css") -> SNTIndex:
    """Build the adapted SNT-index from a Spark traversal DataFrame.

    ``partition_days=None`` is the paper's FULL (single-partition)
    configuration; ``backend`` selects the temporal tree ("css"/"bt").
    """
    pdf = traversals.select("d", "u", "seq", "e", "t", "tt").toPandas()
    return build_index_local(net, pdf, partition_days=partition_days,
                             backend=backend)


def build_index_local(net: RoadNetwork, traversals: pd.DataFrame, *,
                      partition_days: float | None = None,
                      backend: str = "css") -> SNTIndex:
    """Driver-side assembly from a pandas traversal table (any row order):
    string layout -> FM-index -> ISA -> forest/U/ToD.

    Raises ``ValueError`` for an empty table: an index needs at least one
    trajectory."""
    if len(traversals) == 0:
        raise ValueError("empty traversal table: an index needs at least "
                         "one trajectory")
    alphabet = net.n_edges + 1
    check_int32("record count", len(traversals))
    for c in ("d", "u"):
        check_int32(f"largest {c}", traversals[c].to_numpy().max())
    # rows in (d, seq) order, as the forest keeps (e, t) ties in row
    # order; one packed key, which the collected runs make cheap to sort
    d = traversals["d"].to_numpy(dtype=np.int64)
    seq = traversals["seq"].to_numpy(dtype=np.int64)
    o = np.argsort(d * (int(seq.max()) + 1) + seq, kind="stable")
    d, seq = d[o], seq[o]
    col = {c: traversals[c].to_numpy()[o] for c in ("u", "e", "t")}
    e = col["e"].astype(np.int64)
    tt = traversals["tt"].to_numpy(dtype=np.float64)[o]

    # per trajectory (ids ascending): length, first row, t0, partition,
    # offset
    n_rec = np.bincount(d)
    ids = np.flatnonzero(n_rec)
    lens = n_rec[ids]
    head = np.cumsum(lens) - lens
    check_int32("string length", len(d) + len(ids))  # one $ per trajectory
    # the layout and the running sum read seq as the position in the trip
    bad = np.flatnonzero(seq != np.arange(len(d)) - np.repeat(head, lens))
    if len(bad):
        raise ValueError(f"trajectory {int(d[bad[0]])}: seq is not "
                         f"0..{int(n_rec[d[bad[0]]]) - 1}")
    # a = tt summed left to right along each trajectory, record by record
    # (a plain float sum; pandas' grouped cumsum compensates)
    a = tt.copy()
    for k in range(1, int(lens.max())):
        at = head[lens > k] + k
        a[at] += a[at - 1]
    t0 = np.minimum.reduceat(col["t"], head)
    wraw = (np.floor(t0 / (partition_days * DAY)).astype(np.int64)
            if partition_days else np.zeros(len(ids), dtype=np.int64))
    wvals, wt = np.unique(wraw, return_inverse=True)
    n_part = len(wvals)
    order = np.lexsort((ids, t0, wt))
    step = lens[order] + 1
    offset = np.cumsum(step) - step
    off_of = np.zeros(int(ids[-1]) + 1, dtype=np.int64)
    off_of[ids[order]] = offset
    gpos = off_of[d] + seq
    # string w: its leaves' symbols at gpos, one $ (= 0) per trajectory;
    # it starts at the offset of its first trajectory
    text = np.zeros(int(step.sum()), dtype=np.int64)
    text[gpos] = e
    starts = offset[np.searchsorted(wt[order], np.arange(1, n_part))]
    fm = FMIndex(np.split(text, starts), alphabet)
    forest = TemporalForest(e, col["t"], fm.isa[gpos], d, tt, a,
                            backend=backend)
    del fm.isa  # the served index keeps only the search tables + occ

    user_of = np.full(len(off_of), -1, dtype=np.int32)
    user_of[d] = col["u"]

    # ToD store: bucket counts per (e, w) pair with entries, as inclusive
    # prefix sums, rows in (e, w) order; segment e owns rows
    # tod_first[e]:tod_first[e + 1]
    w = np.repeat(wt.astype(np.int64), lens)
    n_buckets = int(np.ceil(DAY / TOD_BUCKET))
    bucket = ((col["t"] % DAY) // TOD_BUCKET).astype(np.int64)
    bucket = np.minimum(bucket, n_buckets - 1)
    pair = e * n_part + w
    present = np.bincount(pair, minlength=alphabet * n_part) > 0
    row = np.cumsum(present) - 1
    n_rows = int(row[-1]) + 1
    counts = np.bincount(row[pair] * n_buckets + bucket,
                         minlength=n_rows * n_buckets)
    tod_hist = np.cumsum(counts.reshape(n_rows, n_buckets), axis=1,
                         dtype=np.int32)
    tod_first = np.append(0, np.cumsum(
        present.reshape(alphabet, n_part).sum(axis=1)))

    tmax = float(col["t"].max() + tt.max())
    return SNTIndex(net, fm, forest, user_of, tod_hist, tod_first, tmax)


def build_index_timed(spark: SparkSession, net: RoadNetwork,
                      traversals: DataFrame, **kwargs
                      ) -> tuple[SNTIndex, float]:
    """Build and report wall-clock setup seconds (Fig. 10c)."""
    t0 = time.perf_counter()
    idx = build_index(spark, net, traversals, **kwargs)
    return idx, time.perf_counter() - t0
