"""Greedy relaxation sigma (Procedure 1): widen -> split -> drop f -> fallback."""
import math

import pytest

from repro.core.intervals import DEFAULT_ALPHAS, fixed, periodic
from repro.core.splitting import (relax, split_longest_prefix, split_regular,
                                  widen_ladder)
from repro.core.spq import SPQ

P = (11, 12, 13, 14, 15, 16)


def q(path=P, size=900.0, periodic_=True, user=None, beta=10):
    centre = 8 * 3600
    ivl = (periodic(centre - size / 2, centre + size / 2) if periodic_
           else fixed(0, 1e7))
    return SPQ(path=tuple(path), interval=ivl, user=user, beta=beta)


def no_card(_):
    raise AssertionError("cardinality must not be probed")


def test_widen_steps_through_alpha_list():
    sub = q(size=900)
    for expected in DEFAULT_ALPHAS[1:]:
        out = relax(sub, "regular", no_card, 1e9)
        assert len(out) == 1
        sub = out[0]
        assert sub.interval.size == pytest.approx(expected)
        assert sub.path == P  # widening never touches the path


def test_widen_ladder_is_the_chain_of_relax_widenings():
    sub = q(size=700)
    ladder = widen_ladder(sub.interval)
    assert [round(i.size) for i in ladder] == [700] + [
        round(a) for a in DEFAULT_ALPHAS]
    for nxt in ladder[1:]:
        (sub,) = relax(sub, "regular", no_card, 1e9)
        assert sub.interval == nxt  # same float bounds, rung by rung
    assert widen_ladder(ladder[-1]) == [ladder[-1]]
    fixed_ivl = fixed(0, 1e7)
    assert widen_ladder(fixed_ivl) == [fixed_ivl]


def test_widen_ladder_ends_when_widening_cannot_grow():
    # at 1e20 s a 450 s pad is below float resolution: no rung is added,
    # so relax splits instead of widening forever
    huge = periodic(1e20, 1e20 + 900)
    assert widen_ladder(huge) == [huge]
    sub = SPQ(path=P, interval=huge, beta=10)
    assert len(relax(sub, "regular", no_card, 1e9)) == 2


def test_split_after_alphas_exhausted():
    sub = q(size=DEFAULT_ALPHAS[-1])
    out = relax(sub, "regular", no_card, 1e9)
    assert [s.path for s in out] == [P[:3], P[3:]]
    for s in out:
        assert s.interval.size == pytest.approx(DEFAULT_ALPHAS[0])
        assert s.interval.periodic


def test_split_preserves_offsets():
    sub = q(size=DEFAULT_ALPHAS[-1])
    out = relax(sub, "regular", no_card, 1e9)
    assert [s.lo for s in out] == [0, 3]


def test_fixed_interval_goes_straight_to_split():
    sub = q(periodic_=False)
    out = relax(sub, "regular", no_card, 1e9)
    assert len(out) == 2
    assert not out[0].interval.periodic
    assert out[0].interval == sub.interval  # fixed windows are not shrunk


def test_single_segment_drops_user():
    sub = q(path=(11,), size=DEFAULT_ALPHAS[-1], user=3)
    out = relax(sub, "regular", no_card, 1e9)
    assert len(out) == 1 and out[0].user is None
    assert out[0].interval == sub.interval


def test_single_segment_final_fallback():
    sub = q(path=(11,), size=DEFAULT_ALPHAS[-1], user=None)
    out = relax(sub, "regular", no_card, tmax=5e6)
    (s,) = out
    assert not s.interval.periodic
    assert s.interval.ts == 0 and s.interval.te == 5e6
    assert s.beta is None and s.user is None and s.timeframe is None


def test_fallback_with_infinite_tmax():
    sub = q(path=(11,), size=DEFAULT_ALPHAS[-1])
    (s,) = relax(sub, "regular", no_card, tmax=math.inf)
    assert s.interval.te == math.inf


def test_split_regular_positions():
    assert split_regular(q(path=(1, 2, 3, 4)), no_card) == 2
    assert split_regular(q(path=(1, 2, 3)), no_card) == 1
    assert split_regular(q(path=(1, 2)), no_card) == 1


@pytest.mark.parametrize("counts,expected", [
    # card(prefix of length m); beta = 10
    ({1: 50, 2: 40, 3: 20, 4: 10, 5: 3}, 4),
    ({1: 50, 2: 3, 3: 1, 4: 0, 5: 0}, 1),
    ({1: 100, 2: 100, 3: 100, 4: 100, 5: 100}, 5),
    ({1: 5, 2: 1, 3: 0, 4: 0, 5: 0}, 1),
])
def test_split_longest_prefix_binary_search(counts, expected):
    sub = q(path=(1, 2, 3, 4, 5, 6), beta=10)
    card = lambda s: counts[len(s.path)]
    assert split_longest_prefix(sub, card) == expected


def test_longest_prefix_matches_linear_scan():
    import numpy as np
    rng = np.random.default_rng(2)
    for _ in range(30):
        l = int(rng.integers(2, 12))
        beta = int(rng.integers(1, 30))
        # monotone non-increasing cardinalities
        cards = np.sort(rng.integers(0, 60, size=l))[::-1]
        sub = q(path=tuple(range(1, l + 1)), beta=beta)
        card = lambda s: int(cards[len(s.path) - 1])
        linear = max([m for m in range(1, l) if cards[m - 1] >= beta],
                     default=1)
        assert split_longest_prefix(sub, card) == linear


def test_relax_uses_shrunk_interval_for_prefix_probes():
    seen = []
    sub = q(path=(1, 2, 3, 4), size=DEFAULT_ALPHAS[-1], beta=5)

    def card(s):
        seen.append(s.interval.size)
        return 100

    relax(sub, "longest_prefix", card, 1e9)
    assert all(sz == pytest.approx(DEFAULT_ALPHAS[0]) for sz in seen)
