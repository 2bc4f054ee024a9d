"""Figures 5-9 reproduction: the full accuracy/latency grid.

Runs every (query type, pi, sigma, beta) cell the paper plots —
sMAPE (Fig. 5), weighted error (Fig. 6), average sub-path length
(Fig. 7), log-likelihood (Fig. 8) and ms/query (Fig. 9) all come from
the same runs, exactly as in the paper — plus the two reference
baselines (speed-limit-only, all-per-segment).

    python jobs/accuracy.py --sf 0.1 --n-queries 100 --out results/accuracy.csv
"""
import argparse
import sys

from _common import add_common_args, print_table, save_csv, setup
from repro.session import get_spark

GRID = {
    "temporal": ["p1", "p2", "p3", "cat", "zone", "zonecat", "none"],
    "user": ["cat", "zone", "zonecat", "mdm"],
    "spq_only": ["cat", "zone", "zonecat", "none"],
}
SIGMAS = ["regular", "longest_prefix"]
BETAS = [10, 20, 30, 40, 50]


def main() -> None:
    p = argparse.ArgumentParser()
    add_common_args(p)
    p.add_argument("--betas", type=int, nargs="*", default=BETAS)
    p.add_argument("--sigmas", type=str, nargs="*", default=SIGMAS)
    args = p.parse_args()

    spark = get_spark("repro-accuracy")
    from repro.workload import (baseline_segment_means, baseline_speed_limit,
                                evaluate_config)
    net, trav, index, queries = setup(spark, args)

    base_rows = []
    sl = baseline_speed_limit(index, queries)
    seg = baseline_segment_means(index, queries)
    base_rows.append({"baseline": "speed-limit only",
                      "smape": sl["smape"],
                      "weighted_error": sl["weighted_error"],
                      "paper_smape": 34.3, "paper_we": 36.9})
    base_rows.append({"baseline": "all per-segment",
                      "smape": seg["smape"],
                      "weighted_error": seg["weighted_error"],
                      "paper_smape": 13.8, "paper_we": 24.0})
    print_table(base_rows, "Reference baselines (paper sec. 6.1)")

    rows = []
    for qt, pms in GRID.items():
        for pm in pms:
            for sm in args.sigmas:
                for beta in args.betas:
                    row = evaluate_config(
                        index, queries, query_type=qt, partition_method=pm,
                        split_method=sm, beta=beta)
                    rows.append(row)
                    print(f"[cell] {qt}/{pm}/{sm}/b={beta}: "
                          f"sMAPE={row['smape']:.2f} "
                          f"wE={row['weighted_error']:.2f} "
                          f"logL={row['log_likelihood']:.2f} "
                          f"len={row['avg_subpath_len']:.2f} "
                          f"ms={row['ms_per_query']:.2f}", file=sys.stderr)
    print_table(rows, "Figures 5-9 grid")
    save_csv(rows + base_rows, args.out)
    spark.stop()


if __name__ == "__main__":
    main()
