"""Deterministic synthetic road network with the paper's edge attributes.

A spatial network is a directed graph ``G = (V, E, F)`` where
``F : E -> Cat x Z x SL x L`` maps every edge to a road category, a zone
type, a speed limit (km/h) and a length (metres) — exactly the
information consumed by the partitioning heuristics (pi_C, pi_Z, pi_ZC,
pi_MDM) and by the ``estimateTT`` speed-limit fallback (paper section 2.2).

The builder lays out an ``nx x ny`` grid of intersections.  Two motorway
corridors cross the map, every fifth grid line is a primary road, every
second a secondary; the rest are tertiary/residential.  Zones are
assigned by a point-in-disc test against city centres (the synthetic
equivalent of the paper's spatial join against the Danish zoning map):
``city`` inside the disc, ``ambiguous`` in a ring around it, ``summer``
in a dedicated coastal strip, ``rural`` elsewhere.

Edge ids start at 1; id 0 is reserved for the ``$`` trajectory-string
terminator used by the FM-index.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Road categories, ordered major -> minor (a subset of OSM's 17).
CATEGORIES = ("motorway", "trunk", "primary", "secondary", "tertiary", "residential")
#: Categories treated as "main roads" by the pi_MDM partitioning method.
MAIN_ROAD_CATEGORIES = frozenset({"motorway", "trunk", "primary"})
#: Zone types from the Danish Business Authority zoning map (+ "ambiguous").
ZONES = ("city", "rural", "summer", "ambiguous")

_SPEED_LIMIT = {  # km/h by (category, in_city)
    ("motorway", False): 130, ("motorway", True): 110,
    ("trunk", False): 80, ("trunk", True): 70,
    ("primary", False): 80, ("primary", True): 50,
    ("secondary", False): 80, ("secondary", True): 50,
    ("tertiary", False): 60, ("tertiary", True): 50,
    ("residential", False): 50, ("residential", True): 30,
}


@dataclass
class RoadNetwork:
    """Directed road network with per-edge attributes as numpy columns.

    Arrays are indexed by edge id (0 is the ``$`` sentinel and carries
    dummy attributes).  ``out_edges[v]`` lists edge ids leaving vertex
    ``v``; ``head``/``tail`` give each edge's endpoints, enabling
    routing and turn classification.
    """

    n_vertices: int
    cat: np.ndarray        # int8 index into CATEGORIES
    zone: np.ndarray       # int8 index into ZONES
    speed_limit: np.ndarray  # float64 km/h
    length: np.ndarray     # float64 metres
    tail: np.ndarray       # int32 source vertex
    head: np.ndarray       # int32 destination vertex
    xy: np.ndarray         # (n_vertices, 2) float64 coordinates (metres)
    out_edges: list = field(repr=False, default_factory=list)

    @property
    def n_edges(self) -> int:
        """Number of real edges (edge ids are 1..n_edges)."""
        return len(self.cat) - 1

    def check_path(self, path) -> None:
        """Raise ``ValueError`` on the first id of ``path`` that is not an
        edge: no relaxation of a query holding one could answer it."""
        for e in path:
            if not 1 <= e <= self.n_edges:
                raise ValueError(f"unknown edge id {e} in path {list(path)}")

    def is_main_road(self, e: int) -> bool:
        """True if ``e`` is a main road (motorway/trunk/primary) — pi_MDM."""
        return CATEGORIES[self.cat[e]] in MAIN_ROAD_CATEGORIES

    def estimate_tt(self, e: int) -> float:
        """Speed-limit traversal-time fallback in seconds (paper sec. 2.2).

        ``estimateTT(e) = 3.6 * length / speed_limit`` — the time to
        traverse ``e`` at its speed limit; used when no trajectory data
        is available for a single-segment sub-query.
        """
        return 3.6 * float(self.length[e]) / float(self.speed_limit[e])

    def reversed_edge(self, e: int) -> int:
        """Id of the opposite-direction edge of the same road segment.

        The grid builder always creates both directions back-to-back, so
        the partner of an odd id is id+1 and vice versa.
        """
        return e + 1 if e % 2 == 1 else e - 1


def _zone_of_points(xy: np.ndarray, centres: np.ndarray, radii: np.ndarray,
                    summer_x: float) -> np.ndarray:
    """Zone index per point: disc test against city centres (+ ring + strip)."""
    z = np.full(len(xy), ZONES.index("rural"), dtype=np.int8)
    z[xy[:, 0] >= summer_x] = ZONES.index("summer")
    for c, r in zip(centres, radii):
        d = np.hypot(xy[:, 0] - c[0], xy[:, 1] - c[1])
        z[d < 1.25 * r] = ZONES.index("ambiguous")
        z[d < r] = ZONES.index("city")
    return z


def build_grid_network(nx: int = 24, ny: int = 24, spacing: float = 400.0,
                       seed: int = 7) -> RoadNetwork:
    """Build the deterministic grid-with-corridors network.

    Parameters mirror the test/bench scales: the default 24x24 grid has
    ~2.2 k directed edges; benchmarks use 40x40 (~6.2 k edges).  ``seed``
    only jitters segment lengths so travel times are not all identical.
    """
    g = np.random.default_rng(seed)
    n_vertices = nx * ny
    xy = np.empty((n_vertices, 2))
    for j in range(ny):
        for i in range(nx):
            xy[j * nx + i] = (i * spacing, j * spacing)

    # City centres: two discs on the west side; summer strip on the far east.
    centres = np.array([
        [0.28 * nx * spacing, 0.30 * ny * spacing],
        [0.22 * nx * spacing, 0.72 * ny * spacing],
    ])
    radii = np.array([0.22 * nx * spacing, 0.15 * nx * spacing])
    summer_x = 0.92 * nx * spacing
    vzone = _zone_of_points(xy, centres, radii, summer_x)

    mw_col, mw_row = nx // 2, ny // 2  # motorway corridors through the middle

    def line_cat(i: int, is_col: bool) -> str:
        if (is_col and i == mw_col) or (not is_col and i == mw_row):
            return "motorway"
        if i % 5 == 0:
            return "primary"
        if i % 2 == 0:
            return "secondary"
        return "tertiary" if i % 3 == 0 else "residential"

    cats, zones, sls, lens, tails, heads = [0], [0], [100.0], [1.0], [0], [0]

    def add_segment(u: int, v: int, cname: str) -> None:
        # Both directions back-to-back: reversed_edge() relies on this.
        mid_zone = vzone[u] if vzone[u] == vzone[v] else ZONES.index("ambiguous")
        in_city = ZONES[mid_zone] == "city"
        sl = _SPEED_LIMIT[(cname, in_city)]
        ln = spacing * float(g.uniform(0.85, 1.15))
        for (a, b) in ((u, v), (v, u)):
            cats.append(CATEGORIES.index(cname))
            zones.append(mid_zone)
            sls.append(float(sl))
            lens.append(ln)
            tails.append(a)
            heads.append(b)

    for j in range(ny):
        for i in range(nx - 1):
            add_segment(j * nx + i, j * nx + i + 1, line_cat(j, is_col=False))
    for i in range(nx):
        for j in range(ny - 1):
            add_segment(j * nx + i, (j + 1) * nx + i, line_cat(i, is_col=True))

    net = RoadNetwork(
        n_vertices=n_vertices,
        cat=np.array(cats, dtype=np.int8),
        zone=np.array(zones, dtype=np.int8),
        speed_limit=np.array(sls),
        length=np.array(lens),
        tail=np.array(tails, dtype=np.int32),
        head=np.array(heads, dtype=np.int32),
        xy=xy,
    )
    out = [[] for _ in range(n_vertices)]
    for e in range(1, net.n_edges + 1):
        out[net.tail[e]].append(e)
    net.out_edges = out
    return net


def make_network(specs: list[tuple[str, str, float, float]],
                 tails: list[int] | None = None,
                 heads: list[int] | None = None) -> RoadNetwork:
    """Network from an explicit edge list ``(category, zone, sl, length)``.

    Used by tests to encode the paper's Figure-1/Table-1 example network
    exactly.  Edge ids are 1..len(specs); if topology is omitted, edges
    form a chain (sufficient for attribute-driven logic).
    """
    n = len(specs)
    tails = tails if tails is not None else list(range(n))
    heads = heads if heads is not None else list(range(1, n + 1))
    n_vertices = max(max(tails), max(heads)) + 1
    xy = np.zeros((n_vertices, 2))
    xy[:, 0] = np.arange(n_vertices)
    net = RoadNetwork(
        n_vertices=n_vertices,
        cat=np.array([0] + [CATEGORIES.index(c) for c, _z, _s, _l in specs],
                     dtype=np.int8),
        zone=np.array([0] + [ZONES.index(z) for _c, z, _s, _l in specs],
                      dtype=np.int8),
        speed_limit=np.array([100.0] + [s for _c, _z, s, _l in specs]),
        length=np.array([1.0] + [l for _c, _z, _s, l in specs]),
        tail=np.array([0] + tails, dtype=np.int32),
        head=np.array([0] + heads, dtype=np.int32),
        xy=xy,
    )
    out = [[] for _ in range(n_vertices)]
    for e in range(1, net.n_edges + 1):
        out[net.tail[e]].append(e)
    net.out_edges = out
    return net

