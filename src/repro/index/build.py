"""SNT-index construction (paper sec. 4.1) — Spark dataflow + local twin.

:func:`build_index` runs one Spark stage over the traversals, the
running aggregate ``a = sum(TT) over (partition by d order by seq)``
(sec. 4.1.3), and collects it with ``d, u, seq, e, t, tt``.
:func:`build_index_local` is the pandas twin of that stage (a grouped
``cumsum``), used by non-Spark unit tests and as the equivalence oracle
for the dataflow.

Both feed :func:`_assemble`, the one implementation of the string
layout.  It puts the rows in ``(d, seq)`` order (Spark's collect order
is arbitrary) and takes each trajectory's start time ``t0 = min(t)``
and length.  The temporal partition is ``w = floor(t0 /
partition_span)`` (sec. 4.3.2), densified to ``0..W-1`` in time order.
Trajectories are laid out in ``(w, t0, d)`` order, each followed by one
``$`` terminator, so the W partition strings lie end to end and record
``seq`` of trajectory ``d`` sits at ``offset[d] + seq``, with
``offset`` the exclusive running sum of ``len + 1``.  One FM-index is
built over the W strings, each leaf's global ISA value (which names its
partition) is read back by position, and the forest, the U map and the
ToD histogram store are constructed.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.intervals import DAY
from repro.fmindex.fm import FMIndex
from repro.index.snt import TOD_BUCKET, SNTIndex
from repro.network.graph import RoadNetwork
from repro.temporal.forest import TemporalForest

LEAF_COLUMNS = ["d", "u", "seq", "e", "t", "tt", "a"]


def _assemble(net: RoadNetwork, leaves: pd.DataFrame, *,
              partition_days: float | None, backend: str) -> SNTIndex:
    """Driver-side assembly: string layout -> FM-index -> ISA -> forest/U/ToD."""
    alphabet = net.n_edges + 1
    # rows in (d, seq) order, as the forest keeps (e, t) ties in row
    # order; one packed key, which the collected runs make cheap to sort
    d = leaves["d"].to_numpy(dtype=np.int64)
    seq = leaves["seq"].to_numpy(dtype=np.int64)
    o = np.argsort(d * (int(seq.max()) + 1) + seq, kind="stable")
    d, seq = d[o], seq[o]
    col = {c: leaves[c].to_numpy()[o] for c in ("u", "e", "t", "tt", "a")}
    e = col["e"].astype(np.int64)

    # per trajectory (ids ascending): length, t0, partition, offset
    n_rec = np.bincount(d)
    ids = np.flatnonzero(n_rec)
    lens = n_rec[ids]
    t0 = np.minimum.reduceat(col["t"], np.cumsum(lens) - lens)
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
    forest = TemporalForest(
        pd.DataFrame({"e": e, "t": col["t"], "d": d, "tt": col["tt"],
                      "a": col["a"], "seq": seq, "isa": fm.isa[gpos]},
                     copy=False),  # the forest gathers copies
        backend=backend)
    del fm.isa  # the served index keeps only the search tables + occ

    user_of = np.full(len(off_of), -1, dtype=np.int64)
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
    tod_hist = np.cumsum(counts.reshape(n_rows, n_buckets), axis=1)
    tod_first = np.append(0, np.cumsum(
        present.reshape(alphabet, n_part).sum(axis=1)))

    tmax = float(col["t"].max() + col["tt"].max())
    return SNTIndex(net, fm, forest, user_of, tod_hist, tod_first, tmax)


def build_index(spark: SparkSession, net: RoadNetwork, traversals: DataFrame,
                *, partition_days: float | None = None,
                backend: str = "css") -> SNTIndex:
    """Build the adapted SNT-index with the Spark dataflow.

    ``partition_days=None`` is the paper's FULL (single-partition)
    configuration; ``backend`` selects the temporal tree ("css"/"bt").
    """
    seq_win = Window.partitionBy("d").orderBy("seq")
    leaf_df = (traversals
               .withColumn("a", F.sum("tt").over(seq_win))
               .select(*LEAF_COLUMNS))
    return _assemble(net, leaf_df.toPandas(),
                     partition_days=partition_days, backend=backend)


def build_index_local(net: RoadNetwork, traversals: pd.DataFrame, *,
                      partition_days: float | None = None,
                      backend: str = "css") -> SNTIndex:
    """Pandas twin of :func:`build_index` (the same running sum, no Spark)."""
    trav = traversals.sort_values(["d", "seq"], kind="stable")
    trav = trav.assign(a=trav.groupby("d")["tt"].cumsum())
    return _assemble(net, trav, partition_days=partition_days,
                     backend=backend)


def build_index_timed(spark: SparkSession, net: RoadNetwork,
                      traversals: DataFrame, **kwargs
                      ) -> tuple[SNTIndex, float]:
    """Build and report wall-clock setup seconds (Fig. 10c)."""
    t0 = time.perf_counter()
    idx = build_index(spark, net, traversals, **kwargs)
    return idx, time.perf_counter() - t0
