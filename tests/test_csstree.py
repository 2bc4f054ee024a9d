"""CSS-tree contract: lower_bound/range_count/range_indices vs numpy
searchsorted."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal.csstree import CSSTree


@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 255, 256, 257, 4096, 5000])
def test_lower_bound_matches_searchsorted(n):
    rng = np.random.default_rng(n)
    keys = np.sort(rng.uniform(0, 1000, size=n))
    t = CSSTree(keys)
    probes = np.concatenate([rng.uniform(-10, 1010, size=50),
                             keys[:20] if n else []])
    for p in probes:
        assert t.lower_bound(p) == np.searchsorted(keys, p, side="left")


@pytest.mark.parametrize("n", [0, 5, 100, 1000])
def test_range_count(n):
    rng = np.random.default_rng(n + 1)
    keys = np.sort(rng.integers(0, 200, size=n).astype(float))
    t = CSSTree(keys)
    for _ in range(30):
        lo, hi = sorted(rng.uniform(-5, 205, size=2))
        assert t.range_count(lo, hi) == int(
            np.searchsorted(keys, hi) - np.searchsorted(keys, lo))


def test_range_count_empty_interval():
    t = CSSTree(np.array([1.0, 2.0, 3.0]))
    assert t.range_count(5, 2) == 0
    assert t.range_indices(5, 2) == (0, 0)


def test_duplicate_keys():
    keys = np.array([1.0, 2.0, 2.0, 2.0, 3.0] * 20)
    keys.sort()
    t = CSSTree(keys)
    assert t.lower_bound(2.0) == np.searchsorted(keys, 2.0)
    assert t.range_count(2.0, 2.5) == 60


def test_rejects_unsorted():
    with pytest.raises(ValueError):
        CSSTree(np.array([3.0, 1.0]))


def test_node_size_variants():
    keys = np.sort(np.random.default_rng(2).uniform(0, 100, 300))
    for m in (2, 4, 16, 64):
        t = CSSTree(keys, node_size=m)
        for p in (0.0, 42.0, 99.9, 200.0):
            assert t.lower_bound(p) == np.searchsorted(keys, p)


def test_directory_smaller_than_keys():
    keys = np.sort(np.random.default_rng(3).uniform(0, 1, 10000))
    t = CSSTree(keys)
    assert 0 < t.nbytes() < keys.nbytes


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                max_size=100),
       st.floats(min_value=-10, max_value=110, allow_nan=False))
def test_property(keys, probe):
    keys = np.sort(np.array(keys, dtype=float))
    t = CSSTree(keys)
    assert t.lower_bound(probe) == np.searchsorted(keys, probe, side="left")


@pytest.mark.parametrize("m", [2, 4, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 17])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_levels_match_definition(m, k, delta):
    """Each directory level holds the max key of every block of m nodes of
    the level below, the last block possibly short; lengths at, just
    under and just over multiples of m."""
    n = k * m + delta
    keys = np.sort(np.random.default_rng(n).uniform(0, 1, n))
    t = CSSTree(keys, node_size=m)
    below = keys
    for level in t.levels:
        assert len(below) > m
        blocks = [below[i:i + m] for i in range(0, len(below), m)]
        assert level.tolist() == [b.max() for b in blocks]
        below = level
    assert len(below) <= m


@st.composite
def _keys_and_bounds(draw):
    """Ascending keys drawn from a small grid (so duplicates are common),
    a node size, and two bounds each on a key, between keys or outside
    the key range."""
    keys = np.sort(np.array(draw(st.lists(
        st.integers(0, 40), max_size=120)), dtype=float) / 2)
    m = draw(st.sampled_from([2, 3, 16]))

    def bound():
        kind = draw(st.sampled_from(["key", "between", "outside"]))
        if kind == "key" and len(keys):
            return float(draw(st.sampled_from(keys.tolist())))
        if kind == "between":
            return draw(st.integers(-1, 41)) / 2 + 0.25
        return draw(st.sampled_from([-5.0, 25.0, -np.inf, np.inf]))

    return keys, m, bound(), bound()


@settings(max_examples=300, deadline=None)
@given(_keys_and_bounds())
def test_range_indices_is_two_searchsorteds(case):
    """The joint descent of both bounds gives numpy's two searches, and
    (0, 0) for an empty or inverted range, with or without a directory
    (n <= m has none)."""
    keys, m, lo, hi = case
    t = CSSTree(keys, node_size=m)
    assert (len(t.levels) == 0) == (len(keys) <= m)
    want = ((0, 0) if hi <= lo else
            (int(np.searchsorted(keys, lo)), int(np.searchsorted(keys, hi))))
    assert t.range_indices(lo, hi) == want
    assert t.range_count(lo, hi) == want[1] - want[0]
    assert t.lower_bound(lo) == np.searchsorted(keys, lo)


@pytest.mark.parametrize("m", [2, 3, 16])
def test_range_indices_on_every_key_pair(m):
    """Every pair of bounds on, between and around the keys of a short
    array with runs of duplicates, deep enough for paths to part at
    every level."""
    keys = np.repeat(np.arange(20.0), [1, 3, 1, 2] * 5)
    t = CSSTree(keys, node_size=m)
    assert len(t.levels) >= (2 if m < 16 else 1)
    probes = np.arange(-1.0, 21.0, 0.5)
    for lo in probes:
        for hi in probes:
            want = ((0, 0) if hi <= lo else
                    (int(np.searchsorted(keys, lo)),
                     int(np.searchsorted(keys, hi))))
            assert t.range_indices(lo, hi) == want, (lo, hi)
