"""Fixed/periodic intervals, widen/shrink and shift-and-enlarge."""
import pytest

from repro.core.intervals import (DAY, DEFAULT_ALPHAS, Interval, all_time,
                                  fixed, periodic, shift_and_enlarge, shrink,
                                  widen)


def test_default_alphas_are_paper_values():
    assert [a / 60 for a in DEFAULT_ALPHAS] == [15, 30, 45, 60, 90, 120]
    assert list(DEFAULT_ALPHAS) == sorted(DEFAULT_ALPHAS)


def test_tod_ranges_simple():
    assert periodic(100, 200).tod_ranges() == [(100.0, 200.0)]


def test_tod_ranges_wrap():
    i = periodic(23.5 * 3600, 24.5 * 3600)
    assert i.tod_ranges() == [(23.5 * 3600, DAY), (0.0, 0.5 * 3600)]


def test_tod_ranges_negative_start():
    i = periodic(-600, 600)
    lo_hi = i.tod_ranges()
    assert (DAY - 600, DAY) in lo_hi and (0.0, 600.0) in lo_hi


def test_tod_ranges_full_day():
    assert periodic(0, 2 * DAY).tod_ranges() == [(0.0, DAY)]


def test_tod_ranges_on_fixed_raises():
    with pytest.raises(ValueError):
        fixed(0, 10).tod_ranges()


def test_widen_is_symmetric():
    i = periodic(1000, 1900)  # size 900 (15 min)
    w = widen(i, 1800)
    assert w.size == pytest.approx(1800)
    assert (w.ts + w.te) / 2 == pytest.approx((i.ts + i.te) / 2)


def test_widen_through_alpha_list():
    i = periodic(0, DEFAULT_ALPHAS[0])
    for a in DEFAULT_ALPHAS[1:]:
        i = widen(i, a)
        assert i.size == pytest.approx(a)


def test_shrink_preserves_centre():
    i = periodic(0, 7200)
    s = shrink(i, 900)
    assert s.size == pytest.approx(900)
    assert (s.ts + s.te) / 2 == pytest.approx(3600)


def test_shift_and_enlarge():
    i = periodic(1000, 1900)
    j = shift_and_enlarge(i, s=120, r=60)
    assert j.ts == pytest.approx(1120)
    assert j.te == pytest.approx(1900 + 120 + 60)
    assert j.periodic


def test_all_time():
    i = all_time(500)
    assert not i.periodic and (i.ts, i.te) == (0, 500)


def test_interval_immutable():
    i = fixed(0, 1)
    with pytest.raises(AttributeError):
        i.ts = 5
