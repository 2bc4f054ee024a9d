"""FMIndex: C counts, the occ-list, the offset table, and backward search
over one or several strings vs brute force."""
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
    return s, FMIndex([s], alphabet_size=6)


@pytest.mark.parametrize("plen", [1, 2, 3, 4])
def test_counts_match_bruteforce(random_fm, plen):
    s, fm = random_fm
    rng = np.random.default_rng(plen)
    for _ in range(30):
        start = rng.integers(0, len(s) - plen)
        p = list(s[start:start + plen])
        if 0 in p:
            continue
        st, ed = fm.isa_ranges(p)[0]
        assert ed - st == brute_count(s, p)


def test_ranges_match_definition(random_fm):
    s, fm = random_fm
    rng = np.random.default_rng(9)
    for _ in range(40):
        plen = int(rng.integers(1, 5))
        p = rng.integers(1, 6, size=plen).tolist()
        assert tuple(fm.isa_ranges(p)[0]) == brute_range(s, suffix_array(s), p)


def test_empty_path_is_full_range(random_fm):
    s, fm = random_fm
    assert tuple(fm.isa_ranges([])[0]) == (0, len(s))


def test_absent_symbol_gives_empty(random_fm):
    s, _ = random_fm
    # symbol 6 is in the alphabet but not in s: C[6] == C[7] == len(s)
    fm = FMIndex([s], alphabet_size=7)
    assert tuple(fm.isa_ranges([6])[0]) == (len(s), len(s))
    assert tuple(fm.isa_ranges([6, 1])[0]) == (0, 0)
    assert tuple(fm.isa_ranges([1, 6])[0]) == (0, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2,
                max_size=50),
       st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=4))
def test_property_counts(body, pattern):
    s = np.array(body + [0])
    fm = FMIndex([s], alphabet_size=5)
    st, ed = fm.isa_ranges(pattern)[0]
    assert ed - st == brute_count(s, pattern)


def test_memory_report_keys(random_fm):
    s, fm = random_fm
    rep = fm.memory_report()
    assert set(rep) == {"C", "WT"} and rep["WT"] == 8 * len(s)
    assert rep["C"] == (fm.D.nbytes + fm.B.nbytes + fm.span.nbytes
                        + fm.start.nbytes)


def test_symbol_counts_paper_string():
    m = {c: i for i, c in enumerate("$ABCDEF")}
    s = np.array([m[c] for c in "ABE$ACDE$ABF$ABE$"])
    c = symbol_counts(s, 7)
    # $:4, A:4, B:3, C:1, D:1, E:3, F:1 cumulated
    assert list(c) == [0, 4, 8, 11, 12, 13, 16, 17]


def test_symbol_counts_has_sentinel_slot():
    c = symbol_counts(np.array([0, 1, 1]), 2)
    assert len(c) == 3 and c[2] == 3  # C[c+1] addressable for the last symbol


#: W trajectory strings: each a list of $-terminated words over 1..5
strings_st = st.lists(
    st.lists(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                      max_size=8), min_size=1, max_size=6),
    min_size=1, max_size=4).map(
        lambda ss: [np.array([e for w in words for e in w + [0]])
                    for words in ss])


@settings(max_examples=40, deadline=None)
@given(strings_st)
def test_occ_blocks_are_ascending_permutation(strings):
    fm = FMIndex(strings, alphabet_size=6)
    bwt = np.concatenate([s[suffix_array(s) - 1] for s in strings])
    assert fm.n == len(bwt)
    assert sorted(fm.occ) == list(range(len(bwt)))
    assert list(fm.B) == list(symbol_counts(bwt, 6))
    for c in range(6):  # $ included
        blk = fm.occ[fm.B[c]:fm.B[c + 1]]
        assert (np.diff(blk) > 0).all()
        assert (bwt[blk] == c).all()  # block c: every BWT position of c


def _expected_range(s, p, alphabet_size):
    """Procedure 2's answer in one string, from the sorted suffixes."""
    if not p:
        return (0, len(s))
    if min(p) < 1 or max(p) >= alphabet_size:
        return (0, 0)
    if len(p) == 1 and brute_count(s, p) == 0:
        c = symbol_counts(s, alphabet_size)[p[0]]
        return (int(c), int(c))  # initial C-range of an absent symbol
    return brute_range(s, suffix_array(s), p)


@settings(max_examples=60, deadline=None)
@given(strings_st,
       st.lists(st.lists(st.integers(min_value=-1, max_value=8), max_size=4),
                min_size=1, max_size=8))
def test_partitioned_ranges_match_bruteforce(strings, paths):
    """Each row of isa_ranges is that string's own suffix-array range:
    absent symbols (6, 7), single symbols, the empty path and ids
    outside the alphabet (-1, 0, 8) included."""
    fm = FMIndex(strings, alphabet_size=8)
    for p in paths:
        got = fm.isa_ranges(p)
        assert got.shape == (len(strings), 2) and got.dtype == np.int64
        for s, row in zip(strings, got):
            assert tuple(row) == _expected_range(s, p, 8)


def test_offset_table_single_string_is_c(random_fm):
    s, fm = random_fm
    assert fm.D.shape == (6, 1)
    assert list(fm.D[:, 0]) == list(symbol_counts(s, 6)[:-1])
