"""Span tracer that times the index's layers from outside the program.

The tracer wraps public functions of each layer for the length of a
traced phase and restores the originals when the phase ends; the
program itself is not changed.  A span records its name, start and end
(``perf_counter_ns``), the span that was open when it started, and the
query id.  Spans live in flat arrays so a traced phase of a few million
spans stays small.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans of one
query add up to the duration of its ``query.trip_query`` root span.

Besides spans, some wrappers log a small record of each call (hashes
of its arguments, a summary of its result) into per-layer lists;
:func:`layer_metrics` turns the logs into the per-layer counts and
ratios after the phase.
"""
from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory spans plus per-layer call logs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        #: id of the query being run; -1 outside queries (builds)
        self.query = -1
        self.log: dict[str, list] = defaultdict(list)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, sid: int) -> int:
        i = len(self.end)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.query)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())  # last: bookkeeping stays outside
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span ``name``."""
        return _wrap(self, name, fn)

    # -- derived quantities -------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(getattr(self, k), dtype=t) for k, t in
                (("name", np.int32), ("parent", np.int32), ("qid", np.int32),
                 ("start", np.int64), ("end", np.int64))}

    def self_ns(self) -> np.ndarray:
        """Per-span self time: duration minus the direct children's."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def write_json(self, path: str, max_query: int, extra: dict) -> None:
        """Spans of builds and of queries ``< max_query``, plus ``extra``."""
        a = self.arrays()
        keep = np.flatnonzero(a["qid"] < max_query)
        # re-number kept spans so parent links stay valid
        new_idx = np.full(len(a["qid"]), -1, dtype=np.int64)
        new_idx[keep] = np.arange(len(keep))
        par = a["parent"][keep]
        spans = {
            "name": [self.names[i] for i in a["name"][keep]],
            "start_ns": a["start"][keep].tolist(),
            "end_ns": a["end"][keep].tolist(),
            "parent": np.where(par >= 0, new_idx[par], -1).tolist(),
            "query": a["qid"][keep].tolist(),
        }
        doc = dict(extra, spans_total=len(a["qid"]), spans_written=len(keep),
                   spans=spans)
        with open(path, "w") as f:
            json.dump(doc, f)


def _wrap(tracer: Tracer, name: str, fn, record=None):
    """``fn`` recording a span per call, and ``record(args, kwargs, out)``
    in ``tracer.log[name]`` when given."""
    sid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(sid)
        try:
            out = fn(*args, **kwargs)
            if record is not None:
                tracer.log[name].append(
                    (tracer.query, record(args, kwargs, out)))
            return out
        finally:
            tracer.close(i)
    return traced


class Patch:
    """Traced stand-ins for ``targets``, swapped in by ``with patch:`` and
    back out when the block ends; re-entering costs one ``setattr`` per
    target.

    ``targets`` are ``(owner, attr, span name, record)``; owners are
    modules or classes.  Class-level ``classmethod`` objects are
    unwrapped and re-wrapped so the traced version binds the same way.
    """

    def __init__(self, tracer: Tracer, targets):
        self.swaps = []
        for owner, attr, name, record in targets:
            old = owner.__dict__[attr]
            if isinstance(old, classmethod):
                new = classmethod(_wrap(tracer, name, old.__func__, record))
            else:
                new = _wrap(tracer, name, old, record)
            self.swaps.append((owner, attr, old, new))

    def __enter__(self) -> "Patch":
        for owner, attr, _, new in self.swaps:
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old, _ in reversed(self.swaps):
            setattr(owner, attr, old)


def _arg(args, kwargs, pos: int, name: str):
    """Argument ``name`` of a call, passed at ``pos`` or by keyword."""
    return args[pos] if len(args) > pos else kwargs[name]


def _length(args, kwargs, out):
    return len(out)


def _isa_ranges(args, kwargs, out):
    return hash(tuple(_arg(args, kwargs, 1, "path"))), out.tobytes()


def _scan(args, kwargs, out):
    user = args[3] if len(args) > 3 else kwargs.get("user")
    key = (tuple(_arg(args, kwargs, 1, "path")),
           _arg(args, kwargs, 2, "interval"), user)
    return hash(key), len(out.xs), out.fallback


def _probe(args, kwargs, out):
    return len(_arg(args, kwargs, 3, "m"))


def _relax(args, kwargs, out):
    return relax_kind(_arg(args, kwargs, 0, "spq"), out)


def _estimate(args, kwargs, out):
    beta = _arg(args, kwargs, 1, "spq").beta
    return beta is not None and out < beta


def query_targets():
    """The query path's layers, named after the modules they live in.

    ``trip_query`` looks ``relax``, ``partition`` and ``convolve_all``
    up in ``repro.core.query``'s namespace, so those names are patched
    there and not in their defining modules.  Records hold only numbers,
    hashes and bytes: records that referenced the program's objects made
    every garbage collection walk them and slowed the traced phase by a
    third.
    """
    import repro.core.query as q
    from repro.core.cardinality import CardinalityEstimator
    from repro.core.histogram import Histogram
    from repro.index.snt import SNTIndex
    from repro.temporal.forest import SegmentLeaves, TemporalForest
    return [
        (SNTIndex, "isa_ranges", "fmindex.isa_ranges", _isa_ranges),
        (SNTIndex, "path_count", "fmindex.path_count", None),
        (SNTIndex, "get_travel_times", "snt.get_travel_times", _scan),
        (TemporalForest, "build_map", "forest.build_map", _length),
        (SegmentLeaves, "candidates", "forest.candidates", _length),
        (TemporalForest, "probe_map", "forest.probe_map", _probe),
        (q, "relax", "splitting.relax", _relax),
        (CardinalityEstimator, "estimate", "cardinality.estimate", _estimate),
        (q, "partition", "partitioning.partition", _length),
        (q, "convolve_all", "histogram.convolve_all", None),
        (Histogram, "from_values", "histogram.from_values", None),
    ]


def build_targets():
    """Build phases: Spark collect, suffix array, FM-index, forest.

    ``FMIndex`` calls the ``suffix_array`` bound in ``repro.fmindex.fm``.
    In pyspark 4 ``toPandas`` of a local session's DataFrame is defined on
    ``pyspark.sql.classic.dataframe.DataFrame``; patching the public
    ``pyspark.sql.DataFrame`` would record nothing.
    """
    import repro.fmindex.fm as fm
    from pyspark.sql.classic.dataframe import DataFrame
    from repro.temporal.forest import TemporalForest
    return [
        (DataFrame, "toPandas", "build.toPandas", None),
        (fm, "suffix_array", "build.suffix_array", None),
        (fm.FMIndex, "__init__", "build.fmindex", None),
        (TemporalForest, "__init__", "build.forest", None),
    ]


# -- per-layer metrics ------------------------------------------------------

#: per-query self-time metrics: metric name -> span names it sums
SELF_TIME = {
    "fmindex.self_ms_per_query": ("fmindex.isa_ranges", "fmindex.path_count"),
    "forest.build_map.self_ms_per_query": ("forest.build_map",),
    "forest.candidates.self_ms_per_query": ("forest.candidates",),
    "forest.probe_map.self_ms_per_query": ("forest.probe_map",),
    "snt.self_ms_per_query": ("snt.get_travel_times",),
    "splitting.self_ms_per_query": ("splitting.relax",),
    "cardinality.self_ms_per_query": ("cardinality.estimate",),
    "partitioning.self_ms_per_query": ("partitioning.partition",),
    "histogram.self_ms_per_query": ("histogram.convolve_all",
                                    "histogram.from_values"),
    "query.self_ms_per_query": ("query.trip_query",),
}


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _repeats(records) -> int:
    """Records whose key repeats an earlier key of the same query."""
    seen: set = set()
    n = 0
    for qid, key, *_ in records:
        n += (qid, key) in seen
        seen.add((qid, key))
    return n


def layer_metrics(tracer: Tracer, n_queries: int,
                  loop_ns: float) -> dict[str, float]:
    """Per-layer self times, counts and ratios of the traced query phase.

    ``loop_ns`` is the traced phase's summed per-query latency as the
    benchmark loop measured it around the root span; the share of it
    covered by the spans' self times is ``trace.self_sum_frac``.
    """
    a = tracer.arrays()
    in_query = a["qid"] >= 0
    own = tracer.self_ns()
    per_name = np.bincount(a["name"][in_query], weights=own[in_query],
                           minlength=len(tracer.names))
    by_name = dict(zip(tracer.names, per_name))
    per_q = 1.0 / max(n_queries, 1)
    m: dict[str, float] = {}
    for metric, spans in SELF_TIME.items():
        m[metric] = sum(by_name.get(s, 0.0) for s in spans) * 1e-6 * per_q
    root = a["name"] == tracer.intern("query.trip_query")
    m["query.traced_ms_per_query"] = float(
        (a["end"] - a["start"])[root].sum()) * 1e-6 * per_q
    m["trace.self_sum_frac"] = _ratio(float(own[in_query].sum()), loop_ns)

    log = tracer.log
    isa = [(qid, rec[0], rec[1]) for qid, rec in log["fmindex.isa_ranges"]]
    m["fmindex.calls_per_query"] = len(isa) * per_q
    empty = 0
    for _, _, raw in isa:
        r = np.frombuffer(raw, dtype=np.int64)
        empty += int(r[1::2].sum() == r[0::2].sum())
    m["fmindex.empty_frac"] = _ratio(empty, len(isa))
    m["fmindex.repeat_frac"] = _ratio(_repeats(isa), len(isa))

    n_cand = sum(n for _, n in log["forest.candidates"])
    m["forest.candidates_per_call"] = _ratio(n_cand,
                                             len(log["forest.candidates"]))
    m["forest.match_frac"] = _ratio(
        sum(n for _, n in log["forest.build_map"]), n_cand)
    m["forest.probe_map.entries_per_query"] = per_q * sum(
        n for _, n in log["forest.probe_map"])

    scans = [(qid, *rec) for qid, rec in log["snt.get_travel_times"]]
    m["snt.scans_per_query"] = len(scans) * per_q
    m["snt.empty_scan_frac"] = _ratio(sum(n == 0 for _, _, n, _ in scans),
                                      len(scans))
    m["snt.repeat_scan_frac"] = _ratio(_repeats(scans), len(scans))
    m["snt.fallback_frac"] = _ratio(sum(f for *_, f in scans), len(scans))

    rel = [kind for _, kind in log["splitting.relax"]]
    m["splitting.calls_per_query"] = len(rel) * per_q
    for kind in ("widen", "split", "drop_user", "fixed_fallback"):
        m[f"splitting.{kind}_frac"] = _ratio(rel.count(kind), len(rel))

    est = log["cardinality.estimate"]
    m["cardinality.calls_per_query"] = len(est) * per_q
    m["cardinality.prune_frac"] = _ratio(sum(p for _, p in est), len(est))

    m["partitioning.subqueries_per_query"] = per_q * sum(
        n for _, n in log["partitioning.partition"])
    return m


def relax_kind(spq, out) -> str:
    """Which step of Procedure 1 turned ``spq`` into ``out``."""
    if len(out) == 2:
        return "split"
    (o,) = out
    if (o.path == spq.path and o.user == spq.user and o.interval.periodic
            and o.interval.size > spq.interval.size):
        return "widen"
    if spq.user is not None and o.user is None and o.interval == spq.interval:
        return "drop_user"
    if o.beta is None and not o.interval.periodic:
        return "fixed_fallback"
    return "other"


def build_phases(tracer: Tracer) -> list[dict[str, float]]:
    """Phase seconds of every traced build, in build order.

    A build's spans are the ones opened between its ``build.build_index``
    root and the next root.  ``spark_s`` runs from the build's start until
    its last ``toPandas`` (the leaf table) returns; ``other_s`` is what
    the named phases leave of the build (ISA join-back, U map, ToD store).
    """
    a = tracer.arrays()
    own = tracer.self_ns()
    name = a["name"]
    roots = np.flatnonzero(name == tracer.intern("build.build_index"))
    ids = {n: tracer.intern("build." + n)
           for n in ("toPandas", "suffix_array", "fmindex", "forest")}
    out = []
    for r, nxt in zip(roots, list(roots[1:]) + [len(name)]):
        sl = slice(r + 1, nxt)
        nm, st, en = name[sl], a["start"][sl], a["end"][sl]
        dur = (en - st) / 1e9
        t0 = a["start"][r]
        total = (a["end"][r] - t0) / 1e9
        tp = nm == ids["toPandas"]
        spark = (en[tp].max() - t0) / 1e9 if tp.any() else 0.0
        fm = nm == ids["fmindex"]
        forest = dur[nm == ids["forest"]].sum()
        sa = dur[nm == ids["suffix_array"]].sum()
        out.append({
            "build.total_s": float(total),
            "build.spark_s": float(spark),
            "build.suffix_array_s": float(sa),
            "build.fmindex_s": float(own[sl][fm].sum() / 1e9),
            "build.forest_s": float(forest),
            "build.other_s": float(total - spark - dur[fm].sum() - forest),
        })
    return out
