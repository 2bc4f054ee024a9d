"""Figure 11 reproduction: the cardinality estimator.

(a) q-error per estimator mode — first-segment sub-queries with a
periodic window and a one-year time frame (the seltf exercise from
sec. 4.4), estimate vs exact retrieved cardinality;
(b) ms/query by partition size x tree backend x estimator mode
(pi_Z, sigma_R, beta = 20, as in the paper);
(c) effect of the estimator on sMAPE.

    python jobs/cardinality.py --sf 0.1 --out results/cardinality.csv
"""
import argparse
import sys

import numpy as np

from _common import add_common_args, print_table, save_csv, setup
from repro.session import get_spark

PARTITIONS = [("90", 90.0), ("365", 365.0), ("FULL", None)]


def qerror_rows(index, queries):
    from repro.core.cardinality import ESTIMATOR_MODES
    from repro.workload import qerrors
    rows = []
    for mode in ESTIMATOR_MODES:
        qes = qerrors(index, queries, mode)
        rows.append({"mode": mode,
                     "qerror_log10_mean": float(np.mean(np.log10(qes))),
                     "qerror_median": float(np.median(qes))})
    return rows


def main() -> None:
    p = argparse.ArgumentParser()
    add_common_args(p)
    args = p.parse_args()
    spark = get_spark("repro-cardinality")
    from repro.index.build import build_index
    from repro.workload import evaluate_config
    net, trav, index, queries = setup(spark, args)

    rows_a = qerror_rows(index, queries)
    print_table(rows_a, "Figure 11a: q-error by estimator mode")

    rows_b, rows_c = [], []
    for label, days in PARTITIONS:
        for backend in ("css", "bt"):
            idx = (index if (days is None and backend == "css")
                   else build_index(spark, net, trav, partition_days=days,
                                    backend=backend))
            modes = ([None, "CSS-Fast", "CSS-Acc"] if backend == "css"
                     else [None, "BT-Fast", "BT-Acc"])
            for mode in modes:
                row = evaluate_config(idx, queries, query_type="temporal",
                                      partition_method="zone",
                                      split_method="regular", beta=20,
                                      estimator_mode=mode)
                rows_b.append({"partition": label, "backend": backend,
                               "estimator": mode or "none",
                               "ms_per_query": row["ms_per_query"],
                               "ms_p50": row["ms_p50"],
                               "ms_p95": row["ms_p95"]})
                rows_c.append({"partition": label, "backend": backend,
                               "estimator": mode or "none",
                               "smape": row["smape"]})
                print(f"[cell] {label}/{backend}/{mode}: "
                      f"ms={row['ms_per_query']:.2f} "
                      f"sMAPE={row['smape']:.2f}", file=sys.stderr)
            if not (days is None and backend == "css"):
                del idx
    print_table(rows_b, "Figure 11b: runtime by partition size and estimator")
    print_table(rows_c, "Figure 11c: estimator effect on accuracy")
    save_csv(rows_a + rows_b + rows_c, args.out)
    spark.stop()


if __name__ == "__main__":
    main()
