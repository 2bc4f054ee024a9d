"""SNT-index construction (paper sec. 4.1) — Spark dataflow + local twin.

:func:`build_index` computes the leaf table with Spark DataFrame
transformations (Catalyst end to end until one collect):

1. *Trajectory summary*: group traversals by trajectory for start time
   ``t0`` and length; assign the temporal partition
   ``w = floor(t0 / partition_span)`` (sec. 4.3.2).
2. *String offsets*: within each partition, order trajectories by
   ``(t0, d)``; each trajectory's offset into the partition's
   trajectory string is the window running sum of ``len + 1`` (the
   ``+1`` is the ``$`` terminator).
3. *Leaf attributes*: running aggregate ``a = sum(TT) over
   (partition by d order by seq)`` and position ``pos = offset + seq``.

:func:`build_index_local` is the pandas twin of the same recurrences,
used by non-Spark unit tests and as the equivalence oracle for the
Spark dataflow.  Both feed :func:`_assemble`, which densifies the
partition ids to ``0..W-1`` (in time order), materialises the
per-partition trajectory strings (unassigned positions are the ``$``
terminators), builds one FM-index over them, joins ISA values back by
position, and constructs the forest, the U map and the ToD histogram
store.
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

LEAF_COLUMNS = ["w", "pos", "e", "t", "tt", "a", "seq", "d", "u"]


def _assemble(net: RoadNetwork, leaves: pd.DataFrame, *,
              backend: str) -> SNTIndex:
    """Driver-side assembly: strings -> FM-index -> ISA -> forest/U/ToD."""
    alphabet = net.n_edges + 1
    leaves = leaves.copy()
    wvals, w = np.unique(leaves["w"].to_numpy(dtype=np.int64),
                         return_inverse=True)
    w = w.astype(np.int64)
    n_part = len(wvals)
    d = leaves["d"].to_numpy(dtype=np.int64)
    e = leaves["e"].to_numpy(dtype=np.int64)
    # string w: its leaves' symbols at pos, one $ (= 0) per trajectory;
    # the W strings are laid end to end, string w from start[w]
    first_leaf = np.unique(d, return_index=True)[1]
    lens = (np.bincount(w, minlength=n_part)
            + np.bincount(w[first_leaf], minlength=n_part))
    start = np.cumsum(lens) - lens
    gpos = start[w] + leaves["pos"].to_numpy(dtype=np.int64)
    text = np.zeros(int(lens.sum()), dtype=np.int64)
    text[gpos] = e
    fm = FMIndex(np.split(text, start[1:]), alphabet)
    leaves["w"] = w
    leaves["isa"] = fm.isa[gpos]
    del fm.isa  # the served index keeps only the search tables + occ

    forest = TemporalForest(
        leaves[["e", "t", "isa", "d", "tt", "a", "seq", "w"]],
        backend=backend)

    u_arr = leaves["u"].to_numpy(dtype=np.int64)
    user_of = np.full(int(d.max()) + 1, -1, dtype=np.int64)
    user_of[d] = u_arr

    # ToD store: bucket counts per (e, w) pair with entries, as inclusive
    # prefix sums, rows in (e, w) order; segment e owns rows
    # tod_first[e]:tod_first[e + 1]
    n_buckets = int(np.ceil(DAY / TOD_BUCKET))
    bucket = ((leaves["t"].to_numpy() % DAY) // TOD_BUCKET).astype(np.int64)
    bucket = np.minimum(bucket, n_buckets - 1)
    keys, row = np.unique(e * n_part + w, return_inverse=True)
    counts = np.bincount(row * n_buckets + bucket,
                         minlength=len(keys) * n_buckets)
    tod_hist = np.cumsum(counts.reshape(len(keys), n_buckets), axis=1)
    tod_first = np.searchsorted(keys // n_part, np.arange(alphabet + 1))

    tmax = float(leaves["t"].max() + leaves["tt"].max())
    return SNTIndex(net, fm, forest, user_of, tod_hist, tod_first, tmax)


def build_index(spark: SparkSession, net: RoadNetwork, traversals: DataFrame,
                *, partition_days: float | None = None,
                backend: str = "css") -> SNTIndex:
    """Build the adapted SNT-index with the Spark dataflow.

    ``partition_days=None`` is the paper's FULL (single-partition)
    configuration; ``backend`` selects the temporal tree ("css"/"bt").
    """
    span = (partition_days * DAY) if partition_days else None

    tl = traversals.groupBy("d", "u").agg(
        F.min("t").alias("t0"),
        (F.max("seq") + F.lit(1)).alias("len"),
    )
    if span:
        tl = tl.withColumn("w", F.floor(F.col("t0") / F.lit(span)))
    else:
        tl = tl.withColumn("w", F.lit(0).cast("long"))

    off_win = Window.partitionBy("w").orderBy("t0", "d")
    tl = tl.withColumn(
        "offset", F.sum(F.col("len") + 1).over(off_win) - (F.col("len") + 1))

    seq_win = Window.partitionBy("d").orderBy("seq")
    leaf_df = (traversals
               .join(tl.select("d", "w", "offset"), "d")
               .withColumn("a", F.sum("tt").over(seq_win))
               .withColumn("pos", F.col("offset") + F.col("seq"))
               .select(*LEAF_COLUMNS))

    return _assemble(net, leaf_df.toPandas(), backend=backend)


def build_index_local(net: RoadNetwork, traversals: pd.DataFrame, *,
                      partition_days: float | None = None,
                      backend: str = "css") -> SNTIndex:
    """Pandas twin of :func:`build_index` (same recurrences, no Spark)."""
    span = (partition_days * DAY) if partition_days else None
    trav = traversals.copy()
    tl = (trav.groupby(["d", "u"], as_index=False)
          .agg(t0=("t", "min"), len_=("seq", "max")))
    tl["len_"] += 1
    tl["w"] = (np.floor(tl["t0"] / span).astype(np.int64)
               if span else np.int64(0))
    tl = tl.sort_values(["w", "t0", "d"], kind="stable")
    tl["offset"] = (tl.groupby("w")["len_"].transform(
        lambda s: (s + 1).cumsum()) - (tl["len_"] + 1))

    trav = trav.merge(tl[["d", "w", "offset"]], on="d")
    trav = trav.sort_values(["d", "seq"], kind="stable")
    trav["a"] = trav.groupby("d")["tt"].cumsum()
    trav["pos"] = trav["offset"] + trav["seq"]
    return _assemble(net, trav[LEAF_COLUMNS], backend=backend)


def build_index_timed(spark: SparkSession, net: RoadNetwork,
                      traversals: DataFrame, **kwargs
                      ) -> tuple[SNTIndex, float]:
    """Build and report wall-clock setup seconds (Fig. 10c)."""
    t0 = time.perf_counter()
    idx = build_index(spark, net, traversals, **kwargs)
    return idx, time.perf_counter() - t0
