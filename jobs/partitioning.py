"""Figure 10 reproduction: temporal partitioning — memory and setup time.

Builds the index at partition sizes 7/30/90/365 days and FULL (single
partition) with the CSS backend, plus FULL with the B+-tree backend,
and reports every component of ``memory_report`` (C counter, rank
structure 'WT', user map, forest, the ToD store held), the ToD-histogram
store size for bucket widths 1/5/10 minutes, and wall-clock setup time.

The first build in a fresh JVM is 1.5-2x slower than later ones, so one
untimed FULL build warms the JVM.  Each config's ``setup_s`` is the
median of ``N_BUILDS`` builds, taken in ``N_BUILDS`` rounds that each
build every config once, in turn: a shared host's speed drifts over a
run, and back-to-back builds of one config would give that config one
phase of the drift, so the configs' order would show in their times.

    python jobs/partitioning.py --sf 0.1 --out results/partitioning.csv
"""
import argparse
import statistics
import sys

from _common import add_common_args, print_table, save_csv, setup
from repro.session import get_spark

CONFIGS = [("7", 7.0, "css"), ("30", 30.0, "css"), ("90", 90.0, "css"),
           ("365", 365.0, "css"), ("FULL", None, "css"), ("BT", None, "bt")]
N_BUILDS = 5  # rounds; setup_s is the median of a config's builds


def main() -> None:
    p = argparse.ArgumentParser()
    add_common_args(p)
    args = p.parse_args()
    spark = get_spark("repro-partitioning")
    from repro.index.build import build_index_timed
    net, trav, _index, _queries = setup(spark, args, build=False)

    secs = build_index_timed(spark, net, trav)[1]
    print(f"[warm-up] FULL/css: setup={secs:.1f}s (not reported)",
          file=sys.stderr)
    rows = []
    times: dict[str, list[float]] = {label: [] for label, _, _ in CONFIGS}
    for r in range(N_BUILDS):
        for label, days, backend in CONFIGS:
            idx, secs = build_index_timed(spark, net, trav,
                                          partition_days=days,
                                          backend=backend)
            times[label].append(secs)
            if r == 0:  # the index is the same in every round
                rep = idx.memory_report()
                mib = 1024 * 1024
                rows.append({
                    "partition": label, "backend": backend,
                    "n_partitions": idx.n_partitions,
                    **{f"{k}_MiB": v / mib for k, v in rep.items()},
                    "hist_h1min_MiB": idx.tod_store_bytes(60.0) / mib,
                    "hist_h5min_MiB": idx.tod_store_bytes(300.0) / mib,
                    "hist_h10min_MiB": idx.tod_store_bytes(600.0) / mib,
                })
            print(f"[built] round {r + 1}/{N_BUILDS} {label}/{backend}: "
                  f"W={idx.n_partitions} setup={secs:.2f}s",
                  file=sys.stderr)
            del idx
    for row in rows:
        ts = times[row["partition"]]
        row["setup_s"] = statistics.median(ts)
        print(f"[setup] {row['partition']}/{row['backend']}: median "
              f"{row['setup_s']:.2f}s of {', '.join(f'{t:.2f}' for t in ts)}",
              file=sys.stderr)
    print_table(rows, "Figure 10: temporal partitioning")
    save_csv(rows, args.out)
    spark.stop()


if __name__ == "__main__":
    main()
