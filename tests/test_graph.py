"""Synthetic road network invariants."""
import numpy as np
import pytest

from repro.network.graph import (CATEGORIES, MAIN_ROAD_CATEGORIES, ZONES,
                                 build_grid_network, make_network)


@pytest.fixture(scope="module")
def net():
    return build_grid_network(nx=12, ny=12, seed=7)


def test_edge_count(net):
    # 2 directed edges per grid segment: 2 * (12*11 + 11*12)
    assert net.n_edges == 2 * (12 * 11 * 2)


def test_reversed_edge_involution(net):
    for e in (1, 2, 17, 100, net.n_edges - 1, net.n_edges):
        r = net.reversed_edge(e)
        assert r != e and net.reversed_edge(r) == e


def test_reversed_edge_swaps_endpoints(net):
    for e in (1, 33, 200):
        r = net.reversed_edge(e)
        assert net.tail[e] == net.head[r] and net.head[e] == net.tail[r]


def test_both_directions_share_attributes(net):
    for e in (1, 50, net.n_edges - 1):
        r = net.reversed_edge(e)
        assert net.cat[e] == net.cat[r]
        assert net.length[e] == net.length[r]
        assert net.speed_limit[e] == net.speed_limit[r]


def test_has_heterogeneous_categories(net):
    cats = {CATEGORIES[c] for c in net.cat[1:]}
    assert "motorway" in cats and len(cats) >= 4


def test_has_city_and_rural_zones(net):
    zones = {ZONES[z] for z in net.zone[1:]}
    assert {"city", "rural"} <= zones


def test_speed_limits_positive_and_plausible(net):
    sl = net.speed_limit[1:]
    assert sl.min() >= 30 and sl.max() <= 130


def test_estimate_tt_formula(net):
    e = 10
    assert net.estimate_tt(e) == pytest.approx(
        3.6 * net.length[e] / net.speed_limit[e])


def test_out_edges_consistent(net):
    for v in (0, 5, 77, net.n_vertices - 1):
        for e in net.out_edges[v]:
            assert net.tail[e] == v


def test_is_main_road(net):
    mains = [e for e in range(1, net.n_edges + 1) if net.is_main_road(e)]
    assert mains
    for e in mains[:20]:
        assert CATEGORIES[net.cat[e]] in MAIN_ROAD_CATEGORIES


def test_deterministic_build():
    a = build_grid_network(nx=8, ny=8, seed=3)
    b = build_grid_network(nx=8, ny=8, seed=3)
    assert np.array_equal(a.length, b.length)
    assert np.array_equal(a.cat, b.cat)


def test_make_network_explicit():
    net = make_network([("motorway", "rural", 110.0, 900.0),
                        ("primary", "city", 50.0, 120.0)])
    assert net.n_edges == 2
    assert CATEGORIES[net.cat[1]] == "motorway"
    assert ZONES[net.zone[2]] == "city"


def test_edge_ids_reserve_zero(net):
    # id 0 is the $ sentinel with dummy attributes
    assert net.cat[0] == 0 and net.length[0] == 1.0
