"""The paper's evaluation shapes (sec. 6.5), checked on the committed results.

The jobs under ``jobs/`` write ``results/accuracy.csv`` (Figs 5-9 and the
reference baselines), ``results/cardinality.csv`` (Fig 11) and
``results/partitioning.csv`` (Fig 10).  Each test here reads them with
pandas and asserts one row of EXPERIMENTS.md's "Summary of reproduced
claims" in the form the data supports, so a change to ``results/`` that
breaks a reproduced claim fails here.  No timing column (``ms_*``,
``setup_s``) is read: one job run is not a reliable timing shape, and
timing is measured by ``perfbench/`` instead.
"""
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

RESULTS = Path(__file__).resolve().parents[1] / "results"
BETA = 20  # the paper's headline cell (Figs 9-11)


def _read(name: str) -> pd.DataFrame:
    return pd.read_csv(RESULTS / name, usecols=lambda c: not (
        c.startswith("ms_") or c == "setup_s"))


@pytest.fixture(scope="module")
def accuracy():
    return _read("accuracy.csv")


@pytest.fixture(scope="module")
def grid(accuracy):
    """The (query type, pi, sigma, beta) cells, without the baselines."""
    return accuracy[accuracy["baseline"].isna()]


@pytest.fixture(scope="module")
def baselines(accuracy):
    return accuracy.dropna(subset=["baseline"]).set_index("baseline")


@pytest.fixture(scope="module")
def cardinality():
    return _read("cardinality.csv")


@pytest.fixture(scope="module")
def qerror(cardinality):
    """Mean log10 q-error per estimator mode (Fig 11a)."""
    return cardinality.dropna(subset=["mode"]).set_index("mode")[
        "qerror_log10_mean"]


@pytest.fixture(scope="module")
def partitioning():
    return _read("partitioning.csv")


def _pivot(grid, query_type, metric):
    """``metric`` of one query type under sigmaR: rows pi, columns beta."""
    g = grid[(grid["query_type"] == query_type)
             & (grid["sigma"] == "regular")]
    return g.pivot(index="pi", columns="beta", values=metric)


def test_grid_cells_are_sane(grid, cardinality):
    assert len(grid) > 0
    assert ((grid["smape"] > 0) & (grid["smape"] < 100)).all()
    assert (grid["avg_subpath_len"] >= 1).all()
    qe = cardinality.dropna(subset=["mode"])
    assert len(qe) > 0 and (qe["qerror_median"] >= 1).all()


def test_path_based_beats_per_segment_baselines(grid, baselines):
    """Temporal piZ (sigmaR, beta = 20) beats both reference baselines in
    sMAPE and wE, and per-segment means beat the speed limits."""
    zone = grid[(grid["query_type"] == "temporal") & (grid["pi"] == "zone")
                & (grid["sigma"] == "regular") & (grid["beta"] == BETA)]
    assert len(zone) == 1
    for base in ("speed-limit only", "all per-segment"):
        for m in ("smape", "weighted_error"):
            assert zone[m].iloc[0] < baselines.loc[base, m], (base, m)
    assert (baselines.loc["all per-segment", "smape"]
            < baselines.loc["speed-limit only", "smape"])


def test_per_segment_histograms_have_worst_likelihood(grid):
    """pi1 convolves one histogram per segment: the worst temporal logL
    at every beta."""
    ll = _pivot(grid, "temporal", "log_likelihood")
    assert (ll.idxmin() == "p1").all()


def test_accuracy_saturates_at_small_beta(grid):
    """Every temporal pi has its best sMAPE at the smallest beta, and the
    largest beta is worse than that."""
    sm = _pivot(grid, "temporal", "smape")
    lo, hi = sm.columns.min(), sm.columns.max()
    assert (sm.idxmin(axis=1) == lo).all()
    assert (sm[hi] > sm[lo]).all()


def test_long_subpaths_beat_short_ones(grid):
    """piN has the lowest temporal wE and piC the best temporal logL at
    every beta; both keep longer sub-paths than any regular partition,
    and among the regular partitions a longer p is better in both."""
    we = _pivot(grid, "temporal", "weighted_error")
    ll = _pivot(grid, "temporal", "log_likelihood")
    ln = _pivot(grid, "temporal", "avg_subpath_len")
    assert (we.idxmin() == "none").all()
    assert (ll.idxmax() == "cat").all()
    regular = ["p1", "p2", "p3"]
    for pi in ("none", "cat"):
        assert (ln.loc[pi] > ln.loc[regular].max()).all(), pi
    assert (we.loc[regular].diff().iloc[1:] < 0).all().all()
    assert (ll.loc[regular].diff().iloc[1:] > 0).all().all()


def test_user_predicates_bring_no_accuracy_gain(grid):
    """For every pi both query types run, the user filter's sMAPE is
    worse than the temporal one's at every beta."""
    user = _pivot(grid, "user", "smape")
    temporal = _pivot(grid, "temporal", "smape")
    shared = user.index.intersection(temporal.index)
    assert len(shared) > 0
    assert (user.loc[shared] > temporal.loc[shared]).all().all()


def test_mdm_is_the_most_accurate_user_method(grid):
    for m in ("smape", "weighted_error"):
        assert (_pivot(grid, "user", m).idxmin() == "mdm").all(), m


def test_regular_splitting_more_accurate_than_longest_prefix(grid):
    """sigmaR beats sigmaL in more (query type, pi, beta) cells than it
    loses, by each of sMAPE, wE and logL.  Not in every cell: sigmaL
    wins a few, by small margins."""
    key = ["query_type", "pi", "beta"]
    r = grid[grid["sigma"] == "regular"].set_index(key)
    l = grid[grid["sigma"] == "longest_prefix"].set_index(key)
    assert len(r) == len(l) > 0
    for m, sign in (("smape", -1), ("weighted_error", -1),
                    ("log_likelihood", 1)):
        gain = sign * (r[m] - l[m])
        assert (gain > 0).sum() > (gain < 0).sum(), m


def test_spq_only_brings_no_accuracy_win(grid, baselines):
    """SPQ-only (fixed window, blind to rush hours) is worse than every
    temporal cell and beats the per-segment baseline by under 0.5 pp."""
    spq = grid.loc[grid["query_type"] == "spq_only", "smape"]
    temporal = grid.loc[grid["query_type"] == "temporal", "smape"]
    assert len(spq) > 0
    assert temporal.max() < spq.min()
    assert spq.min() > baselines.loc["all per-segment", "smape"] - 0.5


def test_bt_forest_larger_than_css_forest(partitioning):
    """The memory half of "CSS-forest <= B+-forest"; the time half is
    timing and is not checked here."""
    forest = partitioning.set_index("partition")["Forest_MiB"]
    assert forest["BT"] > forest["FULL"]


def test_memory_shapes(partitioning):
    """C grows linearly with the number of partitions W; WT, the user map
    and the forest do not depend on W."""
    css = partitioning[partitioning["backend"] == "css"].sort_values(
        "n_partitions")
    w, c = css["n_partitions"].to_numpy(), css["C_MiB"].to_numpy()
    assert w[0] == 1 and (np.diff(w) > 0).all()
    assert (np.diff(c) > 0).all()
    # linear: the same C per added partition, whatever W is
    per_partition = (c[1:] - c[0]) / (w[1:] - 1)
    assert per_partition.max() / per_partition.min() < 1.01
    for col in ("WT_MiB", "user_MiB", "Forest_MiB"):
        assert css[col].nunique() == 1, col


def test_tod_store_dwarfs_the_index(partitioning):
    """A finer bucket or more partitions make a larger ToD store; at 1-min
    buckets it outweighs C + WT everywhere and the whole index at the
    finest partitioning."""
    p = partitioning
    assert (p["hist_h1min_MiB"] > p["hist_h5min_MiB"]).all()
    assert (p["hist_h5min_MiB"] > p["hist_h10min_MiB"]).all()
    assert (p["hist_h1min_MiB"] > p["C_MiB"] + p["WT_MiB"]).all()
    css = p[p["backend"] == "css"].sort_values("n_partitions")
    assert (np.diff(css["hist_h1min_MiB"]) > 0).all()
    finest = css.iloc[-1]
    index = finest[["C_MiB", "WT_MiB", "user_MiB", "Forest_MiB"]].sum()
    assert finest["hist_h1min_MiB"] > index


def test_isa_much_worse_than_filtered_modes(qerror):
    """ISA is at least half an order of magnitude worse than every
    filtered mode."""
    filtered = ["BT-Fast", "BT-Acc", "CSS-Fast", "CSS-Acc"]
    assert (qerror["ISA"] >= qerror[filtered] + 0.5).all()


def test_acc_beats_fast_and_css_beats_bt_in_acc(qerror):
    """Acc beats Fast on both backends; CSS beats BT in the Acc modes.
    Not in the Fast modes: there BT is ahead by about 0.0001."""
    for backend in ("BT", "CSS"):
        assert qerror[f"{backend}-Acc"] < qerror[f"{backend}-Fast"], backend
    assert qerror["CSS-Acc"] < qerror["BT-Acc"]


def test_estimator_accuracy_cost_is_small(cardinality):
    """Fig 11c: in every (partition, backend) group an Acc estimator moves
    sMAPE by under 3 pp from no estimator, and improves it."""
    acc = cardinality.dropna(subset=["smape"])
    assert len(acc) > 0
    for _, g in acc.groupby(["partition", "backend"]):
        s = g.set_index("estimator")["smape"]
        est = [m for m in s.index if m.endswith("-Acc")]
        assert est
        for m in est:
            assert abs(s[m] - s["none"]) < 3.0, m
            assert s[m] < s["none"], m
