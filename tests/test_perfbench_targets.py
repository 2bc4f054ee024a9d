"""perfbench's span tracer still fits the program it patches.

``perfbench/spans.py`` wraps program functions by name and reads some
of their arguments by position, so a rename or a reordered signature
breaks a traced benchmark run without failing any other test.  The
module is loaded from its file as it is.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core.cardinality import CardinalityEstimator
from repro.core.intervals import periodic
from repro.core.query import trip_query
from repro.core.spq import SPQ
from repro.index.snt import SNTIndex
from repro.temporal.forest import TemporalForest
from tests.conftest import A, B, E

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
    """A query run under the query patch logs each layer, and the
    per-layer metrics come out of the log."""
    tracer = spans.Tracer()
    est = CardinalityEstimator(paper_index, "CSS-Acc")
    spq = SPQ(path=(A, B, E), interval=periodic(-450, 450), beta=3)
    with spans.Patch(tracer, spans.query_targets()):
        tracer.query = 0
        res = trip_query(paper_index, spq, partition_method="p1",
                         split_method="regular", estimator=est)
    assert res.subs
    for name in ("snt.get_travel_times", "forest.build_map",
                 "forest.candidates", "forest.probe_map",
                 "fmindex.isa_ranges", "cardinality.estimate",
                 "partitioning.partition"):
        assert tracer.log[name], name
    m = spans.layer_metrics(tracer, 1, 1.0)
    assert m["snt.scans_per_query"] == res.n_index_scans
