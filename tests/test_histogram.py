"""Histogram bucketing, convolution and likelihood support."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import Histogram, convolve_all


def test_from_values_paper_example():
    h = Histogram.from_values([7, 6, 6], h=1.0)
    assert h.as_dict() == {6: 2.0, 7: 1.0}


def test_convolution_paper_example():
    h1 = Histogram.from_values([6, 6, 7], h=1.0)
    h2 = Histogram.from_values([4, 4, 5], h=1.0)
    assert h1.convolve(h2).as_dict() == {10: 4.0, 11: 4.0, 12: 1.0}


def test_convolution_with_empty_is_identity():
    h = Histogram.from_values([3, 4], h=1.0)
    e = Histogram.from_values([], h=1.0)
    assert h.convolve(e).as_dict() == h.as_dict()
    assert e.convolve(h).as_dict() == h.as_dict()


def test_convolve_requires_same_width():
    with pytest.raises(ValueError):
        Histogram.from_values([1], 1.0).convolve(Histogram.from_values([1], 2.0))


def test_bucket_width_10s():
    h = Histogram.from_values([5, 15, 15, 99], h=10.0)
    assert h.as_dict() == {0: 1.0, 1: 2.0, 9: 1.0}


def test_total_and_mean():
    h = Histogram.from_values([10, 20, 30], h=10.0)
    assert h.total == 3


def test_density_at():
    h = Histogram.from_values([5, 5, 15, 25], h=10.0)
    assert h.density_at(7) == pytest.approx(0.5)
    assert h.density_at(16) == pytest.approx(0.25)
    assert h.density_at(999) == 0.0


def test_convolve_all_folds():
    hs = [Histogram.from_values([1], 1.0) for _ in range(3)]
    assert convolve_all(hs).as_dict() == {3: 1.0}
    assert convolve_all([]).total == 0


def test_negative_base_buckets():
    h = Histogram.from_values([-5.0, 3.0], h=2.0)
    assert h.as_dict() == {-3: 1.0, 1: 1.0}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=8),
       st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=8))
def test_convolution_matches_pair_sums(xs, ys):
    h = Histogram.from_values(xs, 1.0).convolve(Histogram.from_values(ys, 1.0))
    brute = {}
    for x in xs:
        for y in ys:
            brute[x + y] = brute.get(x + y, 0) + 1
    assert h.as_dict() == {k: float(v) for k, v in brute.items()}


def test_convolution_mass_is_product():
    h1 = Histogram.from_values(np.random.default_rng(0).integers(0, 50, 20), 5.0)
    h2 = Histogram.from_values(np.random.default_rng(1).integers(0, 50, 30), 5.0)
    assert h1.convolve(h2).total == pytest.approx(h1.total * h2.total)
