"""Evaluation metrics (paper sec. 5.3).

* :func:`smape_term` — one query's symmetric absolute percentage error
  of the summed sub-query means vs the trip's actual duration; sMAPE is
  its mean over the query set (5.3.1);
* :func:`weighted_error_term` — one query's per-sub-query sMAPE
  weighted by the sub-path's share of the path *length*; wE is its mean
  over the query set (5.3.2);
* :func:`log_likelihood` — average log-likelihood of the actual
  duration under the result histogram smoothed with a uniform floor,
  ``p_H(x) = gamma f(x,H) + (1 - gamma) U(x)`` (5.3.3);
* :func:`q_error` — max(est/actual, actual/est) with the
  empty-set-safe max(., 1) guards (5.3.4).
"""
from __future__ import annotations

import math
from typing import Sequence

from repro.core.histogram import Histogram

#: Uniform-smoothing domain for the likelihood: trips in both the paper's
#: data and ours last well under two hours.
T_MIN, T_MAX = 0.0, 7200.0


def smape_term(estimate: float, actual: float) -> float:
    """One query's contribution to sMAPE, in percent."""
    denom = 0.5 * (estimate + actual)
    if denom == 0:
        return 0.0
    return 100.0 * abs(estimate - actual) / denom


def weighted_error_term(sub_means: Sequence[float],
                        sub_actuals: Sequence[float],
                        sub_lengths: Sequence[float]) -> float:
    """One query's weighted error: sum_j w_j sMAPE(Xbar_j, a_j)."""
    total_len = sum(sub_lengths)
    if total_len == 0:
        return 0.0
    return sum((l / total_len) * smape_term(m, a)
               for m, a, l in zip(sub_means, sub_actuals, sub_lengths))


def log_likelihood(actual: float, hist: Histogram, gamma: float = 0.99,
                   t_min: float = T_MIN, t_max: float = T_MAX) -> float:
    """log p_H(actual) with uniform smoothing (sec. 5.3.3).

    ``U`` assigns every width-h bucket in ``[t_min, t_max)`` equal mass,
    so the likelihood never reaches zero for in-domain durations.
    """
    h = hist.h
    n_buckets = max(1.0, (t_max - t_min) / h)
    uniform = 1.0 / n_buckets
    f = hist.density_at(actual)
    return math.log(gamma * f + (1.0 - gamma) * uniform)


def q_error(estimate: float, actual: float) -> float:
    """q = max(b'/n', n'/b') with the max(., 1) guards (sec. 5.3.4)."""
    b = max(float(estimate), 1.0)
    n = max(float(actual), 1.0)
    return max(b / n, n / b)
