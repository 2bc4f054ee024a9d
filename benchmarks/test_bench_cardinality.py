"""Figure 11 benchmark: cardinality estimator quality and effect.

(a) q-error per estimator mode over the query sample's first segments;
(b) query runtime with and without estimators; (c) estimator effect on
accuracy — asserting the paper's shapes: ISA is off by orders of
magnitude while the filtered modes are not, and estimators do not hurt
accuracy materially.
"""
import numpy as np
import pytest

from repro.core.cardinality import ESTIMATOR_MODES
from repro.workload import evaluate_config, qerrors


@pytest.mark.parametrize("mode", ESTIMATOR_MODES)
def test_bench_qerror(benchmark, bench_env, mode):
    idx, queries = bench_env["index"], bench_env["queries"]
    qe = benchmark.pedantic(qerrors, args=(idx, queries[:40], mode),
                            rounds=1, iterations=1)
    assert (qe >= 1).all()


def test_isa_much_worse_than_filtered_modes(benchmark, bench_env):
    idx, queries = bench_env["index"], bench_env["queries"]

    def run():
        isa = np.mean(np.log10(qerrors(idx, queries[:40], "ISA")))
        acc = np.mean(np.log10(qerrors(idx, queries[:40], "CSS-Acc")))
        return isa, acc

    isa, acc = benchmark.pedantic(run, rounds=1, iterations=1)
    assert isa > acc + 0.5  # at least half an order of magnitude apart


@pytest.mark.parametrize("mode", [None, "CSS-Fast", "CSS-Acc"],
                         ids=["none", "CSS-Fast", "CSS-Acc"])
def test_bench_query_runtime_with_estimator(benchmark, bench_env, mode):
    idx, queries = bench_env["index"], bench_env["queries"]
    row = benchmark.pedantic(
        evaluate_config, args=(idx, queries[:40]),
        kwargs=dict(query_type="temporal", partition_method="zone",
                    split_method="regular", beta=20, estimator_mode=mode),
        rounds=1, iterations=1)
    assert np.isfinite(row["smape"])


def test_estimator_accuracy_cost_is_small(benchmark, bench_env):
    """Fig. 11c: estimator-induced accuracy change is minuscule."""
    idx, queries = bench_env["index"], bench_env["queries"]

    def run():
        base = evaluate_config(idx, queries[:40], query_type="temporal",
                               partition_method="zone",
                               split_method="regular", beta=20)
        est = evaluate_config(idx, queries[:40], query_type="temporal",
                              partition_method="zone",
                              split_method="regular", beta=20,
                              estimator_mode="CSS-Acc")
        return base, est

    base, est = benchmark.pedantic(run, rounds=1, iterations=1)
    assert abs(est["smape"] - base["smape"]) < 3.0
