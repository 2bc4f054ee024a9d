"""The index's integer dtypes and the build-time bounds that keep its
int32 arrays from wrapping."""
import numpy as np
import pytest

from repro.core.intervals import fixed, periodic
from repro.index.build import INT32_MAX, build_index_local, check_int32
from tests.conftest import A, B, E


def test_int32_bound_at_two_to_the_31():
    # scalar sizes only: nothing of this size is allocated
    assert INT32_MAX == 2 ** 31 - 1
    for what in ("record count", "largest d", "largest u", "string length"):
        check_int32(what, 2 ** 31 - 1)
        check_int32(what, np.int64(2 ** 31 - 1))
        with pytest.raises(ValueError, match=what):
            check_int32(what, 2 ** 31)
        with pytest.raises(ValueError, match=what):
            check_int32(what, np.int64(2 ** 40))


def test_build_raises_for_a_user_id_past_the_bound(paper_net,
                                                   paper_traversals):
    """A user id of 2**31 would wrap to -2**31 in the int32 U map; the
    build raises instead.  The table stays four trajectories long."""
    trav = paper_traversals.copy()
    trav.loc[trav["d"] == 2, "u"] = 2 ** 31
    with pytest.raises(ValueError, match="largest u"):
        build_index_local(paper_net, trav)
    trav.loc[trav["d"] == 2, "u"] = 2 ** 31 - 1
    idx = build_index_local(paper_net, trav)
    assert idx.user_of[2] == 2 ** 31 - 1


@pytest.mark.parametrize("days", [None, 180])
def test_dtype_contract(small_net, small_traversals, days):
    """Leaves, ToD orders, the ToD store and the U map are int32; a leaf's
    ``t`` and the trajectory-ordered ``a``/``TT`` stay float64, so answers
    are those of the int64 layout.  The FM-index's ``occ``, ``D`` and
    ``span`` stay int64: numpy's ``searchsorted`` copies an int32
    haystack whenever the needles are int64, and a backward-search
    step's needles are the previous step's int64 results."""
    idx = build_index_local(small_net, small_traversals,
                            partition_days=days)
    for lv in idx.forest.segments.values():
        for name in ("isa", "d", "row", "tod_order"):
            assert getattr(lv, name).dtype == np.int32, name
        assert lv.t.dtype == np.float64
    f = idx.forest
    assert f.a.dtype == f.tt.dtype == np.float64
    assert idx.tod_hist.dtype == idx.user_of.dtype == np.int32
    fm = idx.fms[0]
    for name in ("occ", "D", "span"):
        assert getattr(fm, name).dtype == np.int64, name


def test_build_map_returns_intp_rows(paper_index):
    """The int32 leaf rows are widened once, in ``build_map``, so
    ``probe_map`` gathers with ``intp`` indices; candidates likewise."""
    f = paper_index.forest
    ranges = paper_index.isa_ranges([A, B, E])
    for ivl in (fixed(0, 15), periodic(-450, 450)):
        m = f.build_map(A, ranges, ivl, None, None, paper_index.user_of)
        assert m.dtype == np.intp and len(m) == 2
        assert f.get(A).candidates(ivl).dtype == np.intp
    miss = f.build_map(A, ranges, fixed(100, 200), None, None, None)
    assert miss.dtype == np.intp and len(miss) == 0
