"""Shared fixtures: the paper's worked example and small generated datasets.

``paper_*`` encode the Figure-1 network, Table-1 attributes and the
four-trajectory example set of sec. 2.2 exactly (edge ids A=1..F=6),
so unit tests can assert the paper's own numbers.  ``small_*`` is a
deterministic generated dataset on a 12x12 grid, built without Spark;
``spark_dataset``/``spark_index`` provide the SF=0.01 Spark-built
equivalents for integration tests.
"""
import numpy as np
import pandas as pd
import pytest

from repro.index.build import build_index, build_index_local
from repro.network.graph import build_grid_network, make_network
from repro.network.trajgen import TrajectoryModel

# Paper example edge ids
A, B, C, D, E, F6 = 1, 2, 3, 4, 5, 6
U1, U2 = 1, 2

PAPER_SPECS = [
    ("motorway", "rural", 110.0, 900.0),   # A
    ("primary", "city", 50.0, 120.0),      # B
    ("secondary", "city", 30.0, 40.0),     # C
    ("secondary", "city", 30.0, 80.0),     # D
    ("primary", "city", 50.0, 100.0),      # E
    ("primary", "rural", 80.0, 800.0),     # F
]

# tr_i : (d, u) -> [(e, t, TT), ...]   (paper sec. 2.2)
PAPER_TRAJECTORIES = {
    (0, U1): [(A, 0, 3), (B, 3, 4), (E, 7, 4)],
    (1, U2): [(A, 2, 4), (C, 6, 2), (D, 8, 4), (E, 12, 5)],
    (2, U2): [(A, 4, 3), (B, 7, 3), (F6, 10, 6)],
    (3, U1): [(A, 6, 3), (B, 9, 3), (E, 12, 4)],
}


def leaf_partition(index, isa):
    """The temporal partition of leaves with global ISA values ``isa``:
    partition w's suffixes are numbered ``span[0, w]..span[1, w] - 1``."""
    return np.searchsorted(index.fms[0].span[1], isa, side="right")


@pytest.fixture(scope="session")
def paper_net():
    return make_network(PAPER_SPECS)


@pytest.fixture(scope="session")
def paper_traversals():
    rows = []
    for (d, u), seq in PAPER_TRAJECTORIES.items():
        for i, (e, t, tt) in enumerate(seq):
            rows.append((d, u, i, e, float(t), float(tt)))
    return pd.DataFrame(rows, columns=["d", "u", "seq", "e", "t", "tt"])


@pytest.fixture(scope="session")
def paper_index(paper_net, paper_traversals):
    return build_index_local(paper_net, paper_traversals)


@pytest.fixture(scope="session")
def small_net():
    return build_grid_network(nx=12, ny=12, seed=7)


@pytest.fixture(scope="session")
def small_model(small_net):
    return TrajectoryModel(small_net, n_users=10, n_routes=15, seed=3)


@pytest.fixture(scope="session")
def small_traversals(small_model):
    return pd.concat([small_model.rows_for(d) for d in range(400)],
                     ignore_index=True)


@pytest.fixture(scope="session")
def small_index(small_net, small_traversals):
    return build_index_local(small_net, small_traversals)


@pytest.fixture(scope="session")
def spark_dataset(spark):
    from repro.synth_data import trajectories
    net, trav = trajectories(spark, sf=0.01, seed=0, nx=16, ny=16)
    trav = trav.cache()
    trav.count()
    return net, trav


@pytest.fixture(scope="session")
def spark_index(spark, spark_dataset):
    net, trav = spark_dataset
    return build_index(spark, net, trav)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
