"""Shared setup for the reproduction jobs.

Each job is a spark-submit/python entrypoint that builds (or reuses) the
bench-scale dataset and index, runs one figure's experiment grid, prints
the table to stdout, and writes a CSV under ``results/``.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))


def add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sf", type=float, default=0.1,
                   help="trajectory scale factor (0.1 ~ 100 MB)")
    p.add_argument("--nx", type=int, default=40, help="grid width")
    p.add_argument("--n-queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="CSV output path")


def setup(spark, args, *, build: bool = True):
    """Dataset + (optionally) index + query sample for a job."""
    from repro.index.build import build_index
    from repro.synth_data import trajectories
    from repro.workload import sample_queries

    t0 = time.perf_counter()
    net, trav = trajectories(spark, sf=args.sf, seed=args.seed,
                             nx=args.nx, ny=args.nx)
    trav = trav.cache()
    n = trav.count()
    print(f"[setup] traversals={n} edges={net.n_edges} "
          f"({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    index = None
    if build:
        t0 = time.perf_counter()
        index = build_index(spark, net, trav)
        print(f"[setup] index built ({time.perf_counter() - t0:.1f}s)",
              file=sys.stderr)
    queries = sample_queries(trav, args.n_queries, seed=1)
    print(f"[setup] |Q|={len(queries)} avg |P|="
          f"{sum(len(q.path) for q in queries) / len(queries):.1f} "
          f"avg dur={sum(q.actual for q in queries) / len(queries):.0f}s",
          file=sys.stderr)
    return net, trav, index, queries


def print_table(rows: list[dict], title: str) -> None:
    """Markdown table to stdout."""
    if not rows:
        print(f"## {title}\n(no rows)")
        return
    cols = list(rows[0].keys())
    print(f"\n## {title}\n")
    print("| " + " | ".join(cols) + " |")
    print("|" + "|".join("---" for _ in cols) + "|")
    for r in rows:
        print("| " + " | ".join(
            f"{r[c]:.3f}" if isinstance(r[c], float) else str(r[c])
            for c in cols) + " |")


def save_csv(rows: list[dict], path: str | None) -> None:
    if not path or not rows:
        return
    import pandas as pd
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    pd.DataFrame(rows).to_csv(path, index=False)
    print(f"[out] wrote {path}", file=sys.stderr)
