"""Build the SNT-index once and print its memory/setup report.

    python jobs/build_index.py --sf 0.1

Useful as a smoke entrypoint and for the Fig.-10 FULL column.
"""
import argparse

from _common import add_common_args, print_table, setup
from repro.session import get_spark


def main() -> None:
    p = argparse.ArgumentParser()
    add_common_args(p)
    p.add_argument("--partition-days", type=float, default=None)
    p.add_argument("--backend", type=str, default="css",
                   choices=["css", "bt"])
    args = p.parse_args()
    spark = get_spark("repro-build-index")
    from repro.index.build import build_index_timed
    net, trav, _i, _q = setup(spark, args, build=False)
    idx, secs = build_index_timed(spark, net, trav,
                                  partition_days=args.partition_days,
                                  backend=args.backend)
    rep = idx.memory_report()
    mib = 1024 * 1024
    print_table([{
        "n_partitions": idx.n_partitions, "backend": args.backend,
        **{f"{k}_MiB": v / mib for k, v in rep.items()},
        "setup_s": secs,
    }], "SNT-index build report")
    spark.stop()


if __name__ == "__main__":
    main()
