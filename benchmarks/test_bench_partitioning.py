"""Figure 10 benchmark: temporal partitioning — memory and setup time.

Benchmarks index construction (the Spark dataflow + driver assembly) for
the FULL configuration and a partitioned one, for both tree backends,
and asserts the paper's memory shapes: the C counter grows with the
number of partitions, the B+-forest outweighs the CSS forest, and the
ToD-histogram store at small bucket widths dwarfs the index.
"""
import pytest

from repro.index.build import build_index


@pytest.mark.parametrize("days,backend", [
    (None, "css"),   # FULL
    (90.0, "css"),
    (None, "bt"),
], ids=["FULL-css", "90d-css", "FULL-bt"])
def test_bench_build(benchmark, bench_env, spark, days, backend):
    net, trav = bench_env["net"], bench_env["trav"]
    idx = benchmark.pedantic(
        build_index, args=(spark, net, trav),
        kwargs=dict(partition_days=days, backend=backend),
        rounds=1, iterations=1)
    rep = idx.memory_report()
    assert rep["Forest"] > 0 and rep["WT"] > 0


def test_memory_shapes(benchmark, bench_env, spark):
    net, trav = bench_env["net"], bench_env["trav"]
    full_css = bench_env["index"].memory_report()
    part = benchmark.pedantic(build_index, args=(spark, net, trav),
                              kwargs=dict(partition_days=90.0),
                              rounds=1, iterations=1)
    part_rep = part.memory_report()
    assert part.n_partitions > 1
    # C counter grows ~linearly with the number of partitions
    assert part_rep["C"] >= full_css["C"] * (part.n_partitions - 1)
    # rank structure: one entry per string symbol, however partitioned
    assert part_rep["WT"] == full_css["WT"]
    # user map unaffected
    assert part_rep["user"] == full_css["user"]
    # histogram store at h=1min dwarfs h=10min and the FM components
    h1 = part.tod_store_bytes(60.0)
    h10 = part.tod_store_bytes(600.0)
    assert h1 > h10
    assert h1 > part_rep["C"] + part_rep["WT"]


def test_bt_forest_larger_and_not_faster(benchmark, bench_env, spark):
    net, trav = bench_env["net"], bench_env["trav"]
    bt = benchmark.pedantic(build_index, args=(spark, net, trav),
                            kwargs=dict(backend="bt"),
                            rounds=1, iterations=1)
    css_rep = bench_env["index"].memory_report()
    assert bt.memory_report()["Forest"] > css_rep["Forest"]
