"""Suffix-array construction: property tests vs brute force + ISA inverse."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmindex.suffix_array import inverse_suffix_array, suffix_array


def brute_sa(s):
    return sorted(range(len(s)), key=lambda i: list(s[i:]))


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

