"""The paper's worked example, end to end (sec. 2.2, 2.3, 4.1).

Every number asserted here appears verbatim in the paper: Table 1's
estimateTT values, the trajectory string and its Burrows-Wheeler
transform (Fig. 3), the ISA ranges of sec. 4.1.1, the temporal-index
scan example (Fig. 4 / Procedures 3-4), the example SPQ result, and the
sub-query convolution of sec. 2.3.
"""
import numpy as np
import pytest

from repro.core.histogram import Histogram
from repro.core.intervals import fixed
from tests.conftest import A, B, C, D, E, F6, U1, U2

EXPECT_TT = {A: 29.5, B: 8.6, C: 4.8, D: 9.6, E: 7.2, F6: 36.0}


@pytest.mark.parametrize("e,expected", sorted(EXPECT_TT.items()))
def test_estimate_tt_matches_table1(paper_net, e, expected):
    assert paper_net.estimate_tt(e) == pytest.approx(expected, abs=0.06)


def test_trajectory_string_layout(paper_index):
    # T = ABE$ACDE$ABF$ABE$ -> 17 symbols, 4 terminators
    fm = paper_index.fms[0]
    assert fm.n == 17
    assert int(fm.D[1, 0]) == 4  # four $ before 'A' (D[:, 0] is C at W = 1)


def test_bwt_matches_figure3(paper_index):
    # the index keeps only the occ-list: block occ[B[c]:B[c+1]] holds the
    # BWT positions of symbol c, so scattering c through it gives Tbwt
    fm = paper_index.fms[0]
    sym = "$ABCDEF"
    bwt = np.empty(fm.n, dtype=np.int64)
    for c in range(len(sym)):
        bwt[fm.occ[fm.B[c]:fm.B[c + 1]]] = c
    assert "".join(sym[c] for c in bwt) == "EFEE$$$$AAAACBDBB"


def _read_string(idx):
    """The trajectory string, each word read forward from the ISA value of
    its trajectory's first record (row r starts with the symbol c whose
    block holds r; the next row is ``occ[r]``), words in ``t0`` order.
    A trajectory's records hold consecutive leaf rows, its first record
    the smallest."""
    fm = idx.fms[0]
    first = {}  # trajectory -> (row, t, isa) of its first record
    for lv in idx.forest.segments.values():
        for row, d, t, isa in zip(lv.row, lv.d, lv.t, lv.isa):
            if d not in first or row < first[d][0]:
                first[d] = (row, float(t), int(isa))
    heads = sorted((t, int(d), isa) for d, (_, t, isa) in first.items())
    out = ""
    for _, _, r in heads:
        while True:
            c = int(np.searchsorted(fm.B, r, side="right")) - 1
            out += "$ABCDEF"[c]
            if c == 0:
                break
            r = int(fm.occ[r])
    return out


def test_layout_independent_of_row_order(paper_net, paper_traversals,
                                         paper_index):
    """Spark collects rows in no fixed order; the index must not depend on
    it.  The example has an (e, t) tie (E at t = 12 in tr1 and tr3), so
    the forest's order of tied leaves is checked too."""
    from repro.index.build import build_index_local
    rev = paper_traversals.iloc[::-1].reset_index(drop=True)
    shuffled = paper_traversals.sample(frac=1.0, random_state=5)
    for idx in (build_index_local(paper_net, rev),
                build_index_local(paper_net, shuffled)):
        assert _read_string(idx) == "ABE$ACDE$ABF$ABE$"
        for name in ("occ", "span", "D", "B"):
            assert np.array_equal(getattr(idx.fms[0], name),
                                  getattr(paper_index.fms[0], name)), name
        assert np.array_equal(idx.user_of, paper_index.user_of)
        f, g = idx.forest, paper_index.forest
        for name in ("a", "tt"):
            assert np.array_equal(getattr(f, name), getattr(g, name)), name
        assert sorted(f.segments) == sorted(g.segments)
        for e, lv in f.segments.items():
            for name in ("t", "isa", "d", "row", "tod_order"):
                assert np.array_equal(getattr(lv, name),
                                      getattr(g.segments[e], name)), (e, name)


@pytest.mark.parametrize("path,expected", [
    ([A], (4, 8)),
    ([A, B], (4, 7)),
    ([A, C], (7, 8)),
    ([A, B, E], (4, 6)),
    ([A, B, F6], (6, 7)),
    ([C, D, E], (11, 12)),  # single C-suffix: ranks $:0-3, A:4-7, B:8-10, C:11
    # never traversed: the empty range sits after the suffixes smaller
    # than the path, "F$" and the three "E$" ones being smaller than FA/EA
    ([F6, A], (17, 17)),
    ([E, A], (16, 16)),
])
def test_isa_ranges(paper_index, path, expected):
    assert paper_index.isa_ranges(path).tolist() == [list(expected)]


def test_c_array_example(paper_index):
    # paper: C['B'] = 8 (eight symbols lexicographically before B); at
    # W = 1 the offset table D is C without its sentinel slot
    fm = paper_index.fms[0]
    assert int(fm.D[B, 0]) == 8
    assert fm.D[:, 0].tolist() == [0, 4, 8, 11, 12, 13, 16]


def test_path_counts(paper_index):
    assert paper_index.path_count([A]) == 4
    assert paper_index.path_count([A, B]) == 3
    assert paper_index.path_count([A, B, E]) == 2
    assert paper_index.path_count([F6]) == 1


def test_temporal_index_of_A(paper_index):
    # Phi_A: entries at t = 0, 2, 4, 6 with TT = 3, 4, 3, 3
    f = paper_index.forest
    seg = f.get(A)
    assert list(seg.t) == [0, 2, 4, 6]
    # trajectory rows start at first = [0, 3, 7, 10]: every A record is
    # its trajectory's seq 0
    assert list(seg.row) == [0, 3, 7, 10]
    assert list(f.tt[seg.row]) == [3, 4, 3, 3]
    assert list(f.a[seg.row]) == [3, 4, 3, 3]   # first segment: a = TT
    # all four A-records' ISA values fall inside R(<A>) = [4, 8)
    assert set(seg.isa) == {4, 5, 6, 7}


def test_buildmap_probemap_example(paper_index):
    # spq(<A,B,E>, [0,15)): tr0 and tr3 traverse it; durations 11 and 10
    ranges = paper_index.isa_ranges([A, B, E])
    f = paper_index.forest
    m = f.build_map(A, ranges, fixed(0, 15), None, None, paper_index.user_of)
    # trajectory rows start at first = [0, 3, 7, 10]: tr0's and tr3's
    # records at seq 0, where a0 - TT0 = 0
    assert m.tolist() == [0, 10]
    assert (f.a[m] - f.tt[m]).tolist() == [0.0, 0.0]
    xs = f.probe_map(E, 3, m)
    assert xs == [11.0, 10.0]


def test_example_query_with_user_filter(paper_index):
    # Q = spq(<A,B,E>, [0,15), u = u1, 2) -> {tr0, tr3} -> {[10,11):1, [11,12):1}
    r = paper_index.get_travel_times([A, B, E], fixed(0, 15), user=U1, beta=2)
    assert sorted(r.xs) == [10.0, 11.0]
    h = Histogram.from_values(r.xs, h=1.0)
    assert h.as_dict() == {10: 1.0, 11: 1.0}


def test_example_subquery_split_and_convolution(paper_index):
    # Q1 = spq(<A,B>, [0,15), {}, 3)  -> H1 = {[6,7):2, [7,8):1}
    r1 = paper_index.get_travel_times([A, B], fixed(0, 15), beta=3)
    h1 = Histogram.from_values(r1.xs, h=1.0)
    assert h1.as_dict() == {6: 2.0, 7: 1.0}
    # Q2 = spq(<E>, [0,15), {}, 3)    -> H2 = {[4,5):2, [5,6):1}
    r2 = paper_index.get_travel_times([E], fixed(0, 15), beta=3)
    h2 = Histogram.from_values(r2.xs, h=1.0)
    assert h2.as_dict() == {4: 2.0, 5: 1.0}
    # H = H1 * H2 = {[10,11):4, [11,12):4, [12,13):1}
    assert h1.convolve(h2).as_dict() == {10: 4.0, 11: 4.0, 12: 1.0}


def test_user_filter_u2(paper_index):
    # u2 drove tr1 (ACDE) and tr2 (ABF): only tr2 matches <A,B>
    r = paper_index.get_travel_times([A, B], fixed(0, 15), user=U2)
    assert r.xs == [6.0]


def test_durations_of_tr1_subpaths(paper_index):
    # Dur(tr1, <C,D>) = 2 + 4 = 6
    r = paper_index.get_travel_times([C, D], fixed(0, 15))
    assert r.xs == [6.0]
    # Dur(tr1, <A,C,D,E>) = 4+2+4+5 = 15
    r = paper_index.get_travel_times([A, C, D, E], fixed(0, 15))
    assert r.xs == [15.0]


def test_untraversed_single_segment_falls_back(paper_net, paper_index):
    # a path that exists in no trajectory: <B, E> is traversed (tr0, tr3),
    # but <D, B> is not -> empty; single segment never traversed -> estimateTT
    r = paper_index.get_travel_times([D, B], fixed(0, 15))
    assert r.xs == [] and not r.fallback
    # all segments were traversed in the example; craft the fallback via
    # an impossible time interval on a single segment
    r = paper_index.get_travel_times([C], fixed(1000, 2000))
    assert r.fallback and r.xs == [pytest.approx(4.8, abs=0.06)]
