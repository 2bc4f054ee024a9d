"""perfbench's span tracer and memory walk still fit the program.

``perfbench/spans.py`` wraps program functions by name and reads some
of their arguments by position, so a rename or a reordered signature
breaks a traced benchmark run without failing any other test.
``perfbench/checks.py`` and ``run.py`` read index attributes outside any
patch (``fms``, ``n_partitions``, the walked arrays).  Both modules are
loaded from their files as they are.
"""
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.core.cardinality import CardinalityEstimator
from repro.core.intervals import DAY, periodic
from repro.core.query import trip_query
from repro.core.spq import SPQ
from repro.index.snt import SNTIndex
from repro.temporal.forest import TemporalForest
from tests.conftest import A, B, C, D, E

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


def _position(fn, name: str) -> int:
    return list(inspect.signature(fn).parameters).index(name)


def test_patch_targets_exist(spans):
    targets = spans.query_targets() + spans.build_targets()
    for owner, attr, name, _record in targets:
        assert attr in owner.__dict__, name


def test_recorded_argument_positions(spans):
    """The positions the records read with ``_arg``, self included."""
    import repro.core.query as q
    assert _position(TemporalForest.probe_map, "m") == 3
    gtt = SNTIndex.get_travel_times
    assert [_position(gtt, n) for n in ("path", "interval", "user")] == \
        [1, 2, 3]
    assert _position(SNTIndex.isa_ranges, "path") == 1
    assert _position(CardinalityEstimator.estimate, "spq") == 1
    assert _position(q.relax, "spq") == 0


def test_traced_query_records_every_layer(spans, paper_index):
    """Queries run under the query patch log each layer, and the
    per-layer metrics come out of the log.  ``trip_query`` estimates a
    ladder with ``estimate_ladder``, so ``cardinality.estimate`` is
    recorded by the sigma_L probes of the second query: one example trip
    traverses <A, C, D, E>, so with beta = 2 it is split."""
    tracer = spans.Tracer()
    est = CardinalityEstimator(paper_index, "CSS-Acc")
    runs = [(SPQ(path=(A, B, E), interval=periodic(-450, 450), beta=3),
             "p1", "regular"),
            (SPQ(path=(A, C, D, E), interval=periodic(-450, 450), beta=2),
             "none", "longest_prefix")]
    results = []
    with spans.Patch(tracer, spans.query_targets()):
        for i, (spq, pm, sm) in enumerate(runs):
            tracer.query = i
            results.append(trip_query(paper_index, spq, partition_method=pm,
                                      split_method=sm, estimator=est))
    assert all(res.subs for res in results)
    for name in ("snt.get_travel_times", "forest.build_map",
                 "forest.candidates", "forest.probe_map",
                 "fmindex.isa_ranges", "cardinality.estimate",
                 "partitioning.partition"):
        assert tracer.log[name], name
    m = spans.layer_metrics(tracer, len(runs), 1.0)
    assert m["snt.scans_per_query"] == \
        sum(res.n_index_scans for res in results) / len(runs)


@pytest.mark.parametrize("days", [None, 180])
def test_index_attributes_read_outside_patches(checks, small_net,
                                               small_traversals, days):
    """``build.string_len``, ``build.n_partitions`` and the memory walk:
    the strings hold one symbol per record plus one ``$`` per trajectory,
    W is the number of distinct start-time partitions, and the walk finds
    no array that ``memory_report`` leaves out."""
    from repro.index.build import build_index_local
    index = build_index_local(small_net, small_traversals,
                              partition_days=days)
    trav = small_traversals
    assert sum(fm.n for fm in index.fms) == len(trav) + trav["d"].nunique()
    t0 = trav.groupby("d")["t"].min().to_numpy()
    want = 1 if days is None else len(np.unique(t0 // (days * DAY)))
    assert index.n_partitions == want and (want > 1) == (days is not None)
    assert checks.memory_split(index)["mem.unreported_mib"] == 0
