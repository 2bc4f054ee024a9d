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


def brute_range(s, sa, p, off=0):
    """ISA range via the sorted-suffix definition: ``off`` plus the
    suffixes smaller than ``p`` that do not start with it, then its hits;
    the suffixes that start with ``p`` are consecutive."""
    p = list(p)
    below = sum(1 for j in sa if list(s[j:j + len(p)]) < p)
    hits = sum(1 for j in sa if list(s[j:j + len(p)]) == p)
    return (off + below, off + below + hits)


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
    # every suffix is smaller than a path starting with 6
    assert tuple(fm.isa_ranges([6, 1])[0]) == (len(s), len(s))
    # a 1 is never followed by 6: the empty range sits after the
    # suffixes "1 c ..." with c <= 5, i.e. at the end of symbol 1's block
    c = symbol_counts(s, 7)
    assert tuple(fm.isa_ranges([1, 6])[0]) == (c[2], c[2])


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
    assert rep["C"] == fm.D.nbytes + fm.B.nbytes + fm.span.nbytes


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


def _expected_range(s, p, alphabet_size, off):
    """Procedure 2's answer in a string whose sorted suffixes are numbered
    from ``off``, from the sorted suffixes."""
    if p and (min(p) < 1 or max(p) >= alphabet_size):
        return (0, 0)
    return brute_range(s, suffix_array(s), p, off)


@settings(max_examples=60, deadline=None)
@given(strings_st,
       st.lists(st.lists(st.integers(min_value=-1, max_value=8), max_size=4),
                min_size=1, max_size=8))
def test_partitioned_ranges_match_bruteforce(strings, paths):
    """Each row of isa_ranges is that string's own suffix-array range,
    shifted to the string's global start: absent symbols (6, 7), single
    symbols, the empty path and ids outside the alphabet (-1, 0, 8)
    included."""
    fm = FMIndex(strings, alphabet_size=8)
    offs = np.cumsum([0] + [len(s) for s in strings])
    assert fm.span.tolist() == [offs[:-1].tolist(), offs[1:].tolist()]
    for p in paths:
        got = fm.isa_ranges(p)
        assert got.shape == (len(strings), 2) and got.dtype == np.int64
        for s, off, row in zip(strings, offs, got):
            assert tuple(row) == _expected_range(s, p, 8, off)


def test_offset_table_single_string_is_c(random_fm):
    s, fm = random_fm
    assert fm.D.shape == (6, 1)
    assert list(fm.D[:, 0]) == list(symbol_counts(s, 6)[:-1])
