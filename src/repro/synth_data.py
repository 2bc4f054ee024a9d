"""Synthetic trajectory data at a configurable scale factor.

The EDBT'19 paper is evaluated on map-matched GPS trajectories; the
generators live in :mod:`repro.network` (graph + trajgen), see DESIGN.md
sec. 2 for the ITSP-dataset substitution.  SF=0.01 (~10 MB) for unit
tests, SF=0.1 (~100 MB) for benchmarks.  Deterministic in ``seed``.
"""
from pyspark.sql import SparkSession

from repro.network.graph import build_grid_network
from repro.network.trajgen import generate_traversals


def trajectories(spark: SparkSession, *, sf: float = 0.01, seed: int = 0,
                 nx: int = 24, ny: int = 24):
    """Network + traversal DataFrame ``(d, u, seq, e, t, tt)`` at scale ``sf``.

    Builds the deterministic grid network and the distributed trajectory
    generator over it.
    """
    net = build_grid_network(nx=nx, ny=ny, seed=7)
    return net, generate_traversals(spark, net, sf=sf, seed=seed)
