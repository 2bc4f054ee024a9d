"""Workload generation (sec. 5.2) and the evaluation harness."""
import numpy as np
import pytest

from repro.core.intervals import DAY
from repro.workload import (QUERY_TYPES, baseline_segment_means,
                            baseline_speed_limit, evaluate_config, make_spq,
                            qerrors, sample_queries)

pytestmark = pytest.mark.spark


@pytest.fixture(scope="module")
def queries(spark_dataset):
    _net, trav = spark_dataset
    return sample_queries(trav, 25, seed=1)


def test_sample_is_post_median(spark_dataset, queries):
    _net, trav = spark_dataset
    t0s = trav.groupBy("d").agg({"t": "min"}).toPandas()["min(t)"]
    median = t0s.median()
    assert all(q.t0 >= median for q in queries)


def test_sample_deterministic(spark_dataset):
    _net, trav = spark_dataset
    a = sample_queries(trav, 10, seed=2)
    b = sample_queries(trav, 10, seed=2)
    assert [q.d for q in a] == [q.d for q in b]


def test_query_paths_match_ground_truth(queries):
    for q in queries[:10]:
        assert len(q.path) == len(q.tts) >= 5
        assert q.actual == pytest.approx(sum(q.tts))


def test_make_spq_temporal(queries):
    q = queries[0]
    spq = make_spq(q, "temporal", beta=20)
    assert spq.interval.periodic and spq.user is None and spq.beta == 20
    assert spq.interval.size == pytest.approx(900)
    centre = (spq.interval.ts + spq.interval.te) / 2
    assert centre == pytest.approx(q.t0 % DAY)


def test_make_spq_user(queries):
    q = queries[0]
    spq = make_spq(q, "user", beta=10)
    assert spq.user == q.u


def test_make_spq_spq_only(queries):
    q = queries[0]
    spq = make_spq(q, "spq_only", beta=10)
    assert not spq.interval.periodic
    assert spq.interval.ts == 0 and spq.interval.te == q.t0


def test_make_spq_timeframe(queries):
    q = queries[0]
    spq = make_spq(q, "temporal", beta=10, timeframe_days=365)
    assert spq.timeframe == (q.t0 - 365 * DAY, q.t0)


def test_make_spq_unknown_type(queries):
    with pytest.raises(ValueError):
        make_spq(queries[0], "nope", beta=10)


@pytest.mark.parametrize("qt", QUERY_TYPES)
def test_evaluate_config_runs(spark_index, queries, qt):
    row = evaluate_config(spark_index, queries[:10], query_type=qt,
                          partition_method="zone", split_method="regular",
                          beta=10)
    assert row["n_queries"] == 10
    assert 0 <= row["smape"] <= 200
    assert 0 <= row["weighted_error"] <= 200
    assert row["ms_per_query"] > 0
    assert 0 < row["ms_p50"] <= row["ms_p95"]
    assert row["avg_subpath_len"] >= 1
    assert np.isfinite(row["log_likelihood"])


def test_evaluate_with_estimator(spark_index, queries):
    row = evaluate_config(spark_index, queries[:8], query_type="temporal",
                          partition_method="zone", split_method="regular",
                          beta=10, estimator_mode="CSS-Fast")
    assert row["estimator"] == "CSS-Fast"
    assert np.isfinite(row["smape"])


def test_baselines_ordering(spark_index, queries):
    """Speed-limit estimates are far worse than data-driven segment means."""
    sl = baseline_speed_limit(spark_index, queries)
    seg = baseline_segment_means(spark_index, queries)
    assert sl["smape"] > seg["smape"] > 0
    assert sl["weighted_error"] > 0 and seg["weighted_error"] > 0


def test_path_methods_improve_on_speed_limit(spark_index, queries):
    """Headline shape: the proposed system beats the speed-limit fallback."""
    row = evaluate_config(spark_index, queries[:15], query_type="temporal",
                          partition_method="zone", split_method="regular",
                          beta=10)
    sl = baseline_speed_limit(spark_index, queries[:15])
    assert row["smape"] < sl["smape"]


def test_qerrors_isa_overestimates_filtered_subquery(spark_index, queries):
    # ISA counts every traversal of the first segment, the exact count
    # only those in the window and the time frame
    isa = qerrors(spark_index, queries[:8], "ISA")
    acc = qerrors(spark_index, queries[:8], "CSS-Acc")
    assert len(isa) == len(acc) == 8
    assert (isa >= 1).all() and (acc >= 1).all()
    assert np.log10(isa).mean() > np.log10(acc).mean()
