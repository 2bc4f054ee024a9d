"""Suffix-array construction: property tests vs brute force, vs the
two-key doubling reference, and the ISA inverse."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmindex.suffix_array import (check_length, inverse_suffix_array,
                                        suffix_array)


def brute_sa(s):
    return sorted(range(len(s)), key=lambda i: list(s[i:]))


def lexsort_sa(s):
    """Reference: prefix doubling with a two-key ``lexsort`` per round,
    ``-1`` as the second key past the end."""
    s = np.asarray(s, dtype=np.int64)
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.unique(s, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r_sorted = rank[order]
        k2_sorted = key2[order]
        bump = np.zeros(n, dtype=np.int64)
        bump[1:] = ((r_sorted[1:] != r_sorted[:-1]) |
                    (k2_sorted[1:] != k2_sorted[:-1])).astype(np.int64)
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(bump)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            return order.astype(np.int64)
        k *= 2


@pytest.mark.parametrize("text", [
    "ABE$ACDE$ABF$ABE$",  # the paper's trajectory string
    "AAAA$",
    "ABAB$AB$",
    "$",
    "A$",
])
def test_known_strings(text):
    m = {c: i for i, c in enumerate(sorted(set(text)))}
    s = np.array([m[c] for c in text])
    assert list(suffix_array(s)) == brute_sa(s)


def test_empty_string():
    assert len(suffix_array(np.array([], dtype=np.int64))) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                max_size=80))
def test_property_vs_bruteforce(body):
    s = np.array(body + [0])  # $-terminate like trajectory strings
    assert list(suffix_array(s)) == brute_sa(s)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=60))
def test_arbitrary_strings(body):
    # also correct without the terminator convention
    s = np.array(body)
    assert list(suffix_array(s)) == brute_sa(s)


def test_isa_is_inverse():
    rng = np.random.default_rng(5)
    s = rng.integers(0, 8, size=200)
    sa = suffix_array(s)
    isa = inverse_suffix_array(sa)
    assert np.array_equal(sa[isa], np.arange(len(s)))
    assert np.array_equal(isa[sa], np.arange(len(s)))


def test_sa_is_permutation():
    rng = np.random.default_rng(6)
    s = rng.integers(0, 4, size=500)
    sa = suffix_array(s)
    assert sorted(sa) == list(range(len(s)))


def test_multi_terminator_string():
    # several trajectories: terminators are not unique symbols; ties are
    # resolved by the suffix *after* the terminator, like the paper's Fig. 3
    s = np.array([1, 2, 0, 1, 2, 0, 3, 0])
    assert list(suffix_array(s)) == brute_sa(s)



def _assert_same_sa(s):
    sa = suffix_array(s)
    ref = lexsort_sa(s)
    assert sa.dtype == ref.dtype == np.int64
    assert np.array_equal(sa, ref)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                         max_size=12), min_size=1, max_size=6),
       st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                max_size=20))
def test_repeated_trajectories_equal_reference(trajs, picks):
    # whole trajectories repeat, each $-terminated, so the longest
    # repeated substring spans several trajectories and the doubling
    # runs its maximum number of rounds
    s = np.array([x for i in picks for x in trajs[i % len(trajs)] + [0]])
    _assert_same_sa(s)
    assert list(suffix_array(s[:60])) == brute_sa(s[:60])


def test_identical_trajectories_need_every_round():
    s = np.array([3, 1, 2, 0] * 200)
    _assert_same_sa(s)
    assert list(suffix_array(s)) == brute_sa(s)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9000), min_size=1,
                max_size=300),
       st.integers(min_value=0, max_value=2 ** 40))
def test_large_alphabet_equal_reference(body, shift):
    # >= 6,000 symbols, as many as the bench network's edges, and large
    # symbol values: the ranks, not the symbols, enter the key
    s = np.array(body + list(range(6000)) + body) + shift
    _assert_same_sa(s)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                max_size=2))
def test_length_one_and_two_equal_reference(body):
    s = np.array(body)
    _assert_same_sa(s)
    assert list(suffix_array(s)) == brute_sa(s)


def test_length_bound():
    # the int64 key rank * (n + 1) + rank2 + 1 peaks at n**2 + n - 1
    check_length(3_037_000_499)
    with pytest.raises(ValueError):
        check_length(3_037_000_500)
    with pytest.raises(ValueError):
        check_length(10 ** 10)
