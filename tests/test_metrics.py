"""Metric definitions of sec. 5.3: sMAPE, wE, log-likelihood, q-error."""
import math

import pytest

from repro.core.histogram import Histogram
from repro.core.metrics import (log_likelihood, q_error, smape_term,
                                weighted_error_term)


def test_smape_term_zero_for_exact():
    assert smape_term(100, 100) == 0.0


def test_smape_term_symmetric():
    assert smape_term(80, 100) == pytest.approx(smape_term(100, 80))


def test_smape_term_known_value():
    # |90-110| / (0.5*(90+110)) = 20 / 100 = 20%
    assert smape_term(90, 110) == pytest.approx(20.0)


def test_smape_bounded_by_200():
    assert smape_term(0.0001, 1e9) < 200.0000001
    assert smape_term(1e9, 0.0001) < 200.0000001


def test_weighted_error_term_weights_by_length():
    # sub 1: exact (error 0), weight 0.75; sub 2: 20% error, weight 0.25
    t = weighted_error_term([100, 90], [100, 110], [300, 100])
    assert t == pytest.approx(0.25 * 20.0)


def test_weighted_error_degenerate_zero_length():
    assert weighted_error_term([1], [2], [0]) == 0.0


def test_log_likelihood_in_bucket_beats_out_of_bucket():
    h = Histogram.from_values([100, 100, 105], h=10.0)
    assert log_likelihood(102, h) > log_likelihood(500, h)


def test_log_likelihood_uniform_floor():
    h = Histogram.from_values([100], h=10.0)
    # even far outside the histogram, likelihood is finite
    val = log_likelihood(5000, h, gamma=0.99)
    assert math.isfinite(val)
    assert val == pytest.approx(math.log(0.01 / 720.0))


def test_log_likelihood_gamma_one_sided():
    h = Histogram.from_values([100] * 10, h=10.0)
    # all mass in one bucket: gamma*1 + (1-gamma)*U
    assert log_likelihood(101, h, gamma=0.99) == pytest.approx(
        math.log(0.99 + 0.01 / 720.0))


def test_q_error_exact_is_one():
    assert q_error(10, 10) == 1.0


def test_q_error_symmetric_in_direction():
    assert q_error(100, 10) == q_error(10, 100) == 10.0


def test_q_error_empty_set_guards():
    # paper/Stefanoni: max(x, 1) on both sides
    assert q_error(0, 0) == 1.0
    assert q_error(0.2, 5) == 5.0
    assert q_error(7, 0) == 7.0
