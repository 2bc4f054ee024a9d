"""FMIndex: C counts, the occ-list, and backward search vs brute force."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmindex.fm import FMIndex, symbol_counts
from repro.fmindex.suffix_array import suffix_array


def brute_count(s, p):
    s, p = list(s), list(p)
    return sum(1 for i in range(len(s) - len(p) + 1) if s[i:i + len(p)] == p)


def brute_range(s, sa, p):
    """ISA range via the sorted-suffix definition."""
    hits = [j for j in range(len(sa))
            if list(s[sa[j]:sa[j] + len(p)]) == list(p)]
    if not hits:
        return (0, 0)
    return (min(hits), max(hits) + 1)


@pytest.fixture(scope="module")
def random_fm():
    rng = np.random.default_rng(3)
    parts = []
    for _ in range(12):
        parts.extend(rng.integers(1, 6, size=rng.integers(2, 9)).tolist())
        parts.append(0)
    s = np.array(parts)
    return s, FMIndex(s, alphabet_size=6)


@pytest.mark.parametrize("plen", [1, 2, 3, 4])
def test_counts_match_bruteforce(random_fm, plen):
    s, fm = random_fm
    rng = np.random.default_rng(plen)
    for _ in range(30):
        start = rng.integers(0, len(s) - plen)
        p = list(s[start:start + plen])
        if 0 in p:
            continue
        st, ed = fm.isa_range(p)
        assert ed - st == brute_count(s, p)


def test_ranges_match_definition(random_fm):
    s, fm = random_fm
    rng = np.random.default_rng(9)
    for _ in range(40):
        plen = int(rng.integers(1, 5))
        p = rng.integers(1, 6, size=plen).tolist()
        assert fm.isa_range(p) == brute_range(s, suffix_array(s), p)


def test_empty_path_is_full_range(random_fm):
    s, fm = random_fm
    assert fm.isa_range([]) == (0, len(s))


def test_absent_symbol_gives_empty(random_fm):
    s, fm = random_fm
    # symbol 5 may exist; symbol count array has the +1 slot, and a
    # symbol with zero occurrences yields C[c] == C[c+1]
    missing = next(c for c in range(1, 6) if brute_count(s, [c]) == 0) \
        if any(brute_count(s, [c]) == 0 for c in range(1, 6)) else None
    if missing is not None:
        assert fm.isa_range([missing]) == (0, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2,
                max_size=50),
       st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=4))
def test_property_counts(body, pattern):
    s = np.array(body + [0])
    fm = FMIndex(s, alphabet_size=5)
    st, ed = fm.isa_range(pattern)
    assert ed - st == brute_count(s, pattern)


def test_memory_report_keys(random_fm):
    s, fm = random_fm
    rep = fm.memory_report()
    assert set(rep) == {"C", "WT"} and rep["WT"] == 8 * len(s)


def test_symbol_counts_paper_string():
    m = {c: i for i, c in enumerate("$ABCDEF")}
    s = np.array([m[c] for c in "ABE$ACDE$ABF$ABE$"])
    c = symbol_counts(s, 7)
    # $:4, A:4, B:3, C:1, D:1, E:3, F:1 cumulated
    assert list(c) == [0, 4, 8, 11, 12, 13, 16, 17]


def test_symbol_counts_has_sentinel_slot():
    c = symbol_counts(np.array([0, 1, 1]), 2)
    assert len(c) == 3 and c[2] == 3  # C[c+1] addressable for the last symbol


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                         max_size=8), min_size=1, max_size=8))
def test_occ_blocks_are_ascending_permutation(words):
    s = np.array([e for w in words for e in w + [0]])  # $-terminated words
    fm = FMIndex(s, alphabet_size=6)
    bwt = s[suffix_array(s) - 1]
    assert sorted(fm.occ) == list(range(len(s)))
    for c in range(6):  # $ included
        blk = fm.occ[fm.C[c]:fm.C[c + 1]]
        assert (np.diff(blk) > 0).all()
        assert (bwt[blk] == c).all()  # block c holds the BWT positions of c
