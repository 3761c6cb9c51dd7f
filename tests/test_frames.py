from random import Random

import pytest

from condlat import catalog
from condlat.errors import TooLarge, WidthMismatch
from condlat.frames import (
    RelationalFrame,
    closed_sets,
    fixpoints,
    random_frame,
    set_label,
)
from condlat.lattice import MAX_ELEMENTS
from condlat.ops import PRECONDITIONAL_AXIOMS, check_axioms


def test_frame_construction_and_relation():
    fr = RelationalFrame.from_edges(("a", "b"), [("a", "b")])
    assert fr.related(0, 1) and not fr.related(1, 0) and not fr.related(0, 0)
    assert fr.edges() == [(0, 1)]
    fr2 = RelationalFrame.from_edges(("a", "b"), [("a", "b")], reflexive=True)
    assert fr2.related(0, 0) and fr2.related(1, 1)


def test_frame_validation():
    with pytest.raises(WidthMismatch):
        RelationalFrame((), ())
    with pytest.raises(WidthMismatch):
        RelationalFrame(("a", "a"), (0, 0))
    with pytest.raises(WidthMismatch):
        RelationalFrame(("a",), (2,))
    fr = RelationalFrame(("a",), (1,))
    with pytest.raises(WidthMismatch):
        fr.arrow(2, 0)


def test_arrow_on_an_isolated_point_is_total():
    # no predecessors: the condition over them is vacuous
    fr = RelationalFrame(("a", "b"), (0, 0))
    assert fr.arrow(0b01, 0b10) == 0b11
    assert fr.closure(0) == 0b11


def test_closure_is_monotone_inflationary_idempotent(quad_frame):
    fr = quad_frame
    for A in range(fr.full_mask + 1):
        cA = fr.closure(A)
        assert A | cA == cA
        assert fr.closure(cA) == cA
        for B in range(fr.full_mask + 1):
            if A & ~B == 0:
                assert cA & ~fr.closure(B) == 0


def test_quad_fixpoints_pinned(quad_frame):
    fl = fixpoints(quad_frame)
    assert fl.sets == catalog.frame_entry("quad-two-way").fixpoint_masks
    assert fl.lattice.n == 7
    # meet is intersection, join is closure of union, literally
    for i, s in enumerate(fl.sets):
        for j, t in enumerate(fl.sets):
            assert fl.sets[fl.lattice.meet(i, j)] == s & t
            assert fl.sets[fl.lattice.join(i, j)] == quad_frame.closure(s | t)


def test_quad_table_matches_published_form(quad_frame):
    fe = catalog.frame_entry("quad-two-way")
    mask_of = dict(fe.table_order)
    for i, (_, A) in enumerate(fe.table_order):
        for j, (_, B) in enumerate(fe.table_order):
            assert quad_frame.arrow(A, B) == mask_of[fe.table_names[i][j]]


def test_fixpoint_conditional_is_preconditional(quad_frame):
    fl = fixpoints(quad_frame)
    assert check_axioms(fl.op, PRECONDITIONAL_AXIOMS).ok


def _scan_fixpoints(frame):
    """The reference: every one of the 2^m subsets, closed or not."""
    return [A for A in range(frame.full_mask + 1) if frame.closure(A) == A]


def test_closed_sets_match_the_subset_scan():
    rng = Random(3)
    for _ in range(300):
        fr = random_frame(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
        want = _scan_fixpoints(fr)
        assert closed_sets(fr.m, fr.closure, None) == want
        limit = rng.randint(0, 4)
        assert closed_sets(fr.m, fr.closure, limit) == want[:limit + 1]
        if len(want) > MAX_ELEMENTS:
            with pytest.raises(TooLarge):
                fixpoints(fr)
            continue
        fl = fixpoints(fr)
        assert fl.sets == tuple(want)
        assert fl.op.table == tuple(
            tuple(want.index(fr.arrow(s, t)) for t in want) for s in want
        )


def test_fixpoints_refuse_more_than_a_lattice_holds_after_a_bounded_walk():
    # a reflexive-only relation closes every set: 2^40 fixpoints
    fr = RelationalFrame.from_edges([f"p{i}" for i in range(40)], (), reflexive=True)
    calls = []

    def close(A):
        calls.append(A)
        return fr.closure(A)

    assert len(closed_sets(fr.m, close, MAX_ELEMENTS)) == MAX_ELEMENTS + 1
    # one call per point up front, then at most m per listed set
    assert len(calls) <= fr.m + 1 + MAX_ELEMENTS * fr.m
    with pytest.raises(TooLarge, match="more than 64 fixpoints"):
        fixpoints(fr)


def test_set_label(quad_frame):
    assert set_label(quad_frame, 0) == "{}"
    assert set_label(quad_frame, 0b1001) == "{x,z}"


def test_two_way_traffic_collapses_separation(quad_frame):
    # y and w see each other, so no fixpoint separates them
    fr = quad_frame
    y, w = fr.index("y"), fr.index("w")
    for s in fixpoints(fr).sets:
        assert (s >> y & 1) == (s >> w & 1) or s in (0b0011, 0b1100)
    # {x,y} contains y without w; {w,z} contains w without y: the two
    # points are separated by fixpoints in one direction each
    assert fr.closure(0b0011) == 0b0011 and fr.closure(0b1100) == 0b1100
