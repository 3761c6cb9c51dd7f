import hashlib
from random import Random

import pytest

from condlat import catalog
from condlat import frames as frames_module
from condlat.errors import InternalInconsistency, TooLarge, WidthMismatch
from condlat.frames import (
    RelationalFrame,
    closed_sets,
    fixpoints,
    random_frame,
    set_label,
)
from condlat.lattice import GRID_MIN_INSTANCES, MAX_ELEMENTS, FiniteLattice
from condlat.ops import PRECONDITIONAL_AXIOMS, check_axioms
from condlat.representation import build_pair_frame
from conftest import TamperedFrame, definition_arrow


def test_frame_construction_and_relation():
    fr = RelationalFrame.from_edges(("a", "b"), [("a", "b")])
    assert fr.related(0, 1) and not fr.related(1, 0) and not fr.related(0, 0)
    assert fr.edges() == [(0, 1)]
    fr2 = RelationalFrame.from_edges(("a", "b"), [("a", "b")], reflexive=True)
    assert fr2.related(0, 0) and fr2.related(1, 1)


@pytest.mark.parametrize("bad", [(0, -1), (-1, 0), (0, 2), ("z", 0), (0, "z")],
                         ids=["negative-target", "negative-source", "past-the-end",
                              "unknown-name-source", "unknown-name-target"])
def test_from_edges_refuses_references_outside_the_points(bad):
    with pytest.raises(WidthMismatch, match=r"references unknown points$"):
        RelationalFrame.from_edges(("x", "y"), [bad])
    assert RelationalFrame.from_edges(("x", "y"), [("x", 1)]).edges() == [(0, 1)]


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


@pytest.mark.parametrize("m", (*range(1, 11), 63, 64, 65, 198))
def test_successors_are_the_predecessors_transposed(m):
    full = (1 << m) - 1
    rng = Random(m)
    for pred in ([0] * m, [full] * m, [rng.getrandbits(m) for _ in range(m)]):
        fr = RelationalFrame([f"p{i}" for i in range(m)], pred)
        for y in range(m):
            assert fr.successors(y) == sum(1 << x for x in range(m) if pred[x] >> y & 1)


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


# -- the scalar arrow by byte tables -------------------------------------

def _edge_masks(m, rng):
    """Masks at byte and word edges of an m-point frame, plus random ones."""
    full = (1 << m) - 1
    out = {0, full}
    for i in (0, 7, 8, 15, 16, 63, 64, 65, 127, 128, 129):
        if i < m:
            out |= {1 << i, full & ~(1 << i), full & (1 << i + 1) - 1, full >> i << i}
    out |= {rng.getrandbits(m) for _ in range(6)}
    return sorted(out)


@pytest.mark.parametrize("m", list(range(1, 11)) + [15, 16, 17, 63, 64, 65, 130])
def test_byte_table_arrow_matches_the_definition_cell_for_cell(m):
    rng = Random(f"arrow{m}")
    full = (1 << m) - 1
    mixed = [(0, full, rng.getrandbits(m))[x % 3] for x in range(m)]  # empty and full rows
    frames = [random_frame(rng, m, d) for d in (0.1, 0.5, 0.9)] + [
        RelationalFrame([f"p{i}" for i in range(m)], mixed),
        RelationalFrame([f"p{i}" for i in range(m)], [0] * m),
        RelationalFrame([f"p{i}" for i in range(m)], [full] * m),
    ]
    masks = _edge_masks(m, rng)
    for fr in frames:
        for A in masks:
            assert fr.closure(A) == definition_arrow(fr, full, A)
            for B in masks:
                assert fr.arrow(A, B) == definition_arrow(fr, A, B), (fr, A, B)


@pytest.mark.parametrize("m", range(1, 10))
def test_one_table_arrow_matches_the_definition_on_every_pair(m):
    # frames of at most 8 points read one table per step, wider ones one per byte;
    # masks outside the frame are refused on both sides of 8 by
    # test_byte_table_arrow_refuses_masks_outside_the_frame
    fr = random_frame(Random(f"one-table{m}"), m)
    full = fr.full_mask
    assert (fr._one_table is not None) == (m <= 8)
    for A in range(full + 1):
        for B in range(full + 1):
            assert fr.arrow(A, B) == definition_arrow(fr, A, B), (A, B)


@pytest.mark.parametrize("m", (1, 8, 9, 64, 65))
def test_byte_table_arrow_refuses_masks_outside_the_frame(m):
    fr = random_frame(Random(m), m)
    full = fr.full_mask
    for A, B, bad in ((full + 1, 0, full + 1), (0, full + 1, full + 1), (-1, full, -1),
                      (full, -1, -1), (1 << m + 8, full + 1, 1 << m + 8)):
        msg = f"mask {bad:#x} addresses points outside this {m}-point frame"
        with pytest.raises(WidthMismatch) as exc:
            fr.arrow(A, B)
        assert str(exc.value) == msg
    with pytest.raises(WidthMismatch):
        fr.closure(full + 1)


@pytest.mark.parametrize("m", (1, 7, 8, 9, 17))
def test_byte_tables_hold_the_union_of_the_rows_over_each_byte(m):
    rng = Random(f"tables{m}")
    rows = [rng.getrandbits(m) for _ in range(m)]
    tables = frames_module.byte_tables(rows)
    assert len(tables) == -(-m // 8)
    assert all(isinstance(t, bytes if m <= 8 else list) for t in tables)
    for i, t in enumerate(tables):
        width = min(8, m - 8 * i)
        assert len(t) == 1 << width
        for v in range(1 << width):
            want = 0
            for j in range(width):
                if v >> j & 1:
                    want |= rows[8 * i + j]
            assert t[v] == want, (i, v)
    for X in [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(20)]:
        want = 0
        for p in range(m):
            if X >> p & 1:
                want |= rows[p]
        assert frames_module._union(tables, X) == want


def test_a_tampered_frame_still_tampers_the_scalar_route():
    fr = random_frame(Random(3), 12)
    A, B, flip = 0b101100110101, 0b011011001110, 1 << 9
    tampered = TamperedFrame(fr, {(A, B): flip, (fr.full_mask, B): flip})
    assert tampered.arrow(A, B) == fr.arrow(A, B) ^ flip
    assert tampered.closure(B) == fr.closure(B) ^ flip
    assert tampered.arrow(B, A) == fr.arrow(B, A)


def test_set_grids_close_each_distinct_union_once(monkeypatch):
    fr = random_frame(Random(5), 7)
    H = closed_sets(fr.m, fr.closure, None)
    closed, closure = [], RelationalFrame.closure

    def counting(self, A):
        closed.append(A)
        return closure(self, A)

    monkeypatch.setattr(RelationalFrame, "closure", counting)
    C, A = frames_module._set_grids(fr, H)
    unions = {s | t for s in H for t in H}
    assert len(H) ** 2 > 2 * len(unions)
    assert sorted(closed) == sorted(unions)
    assert C == [[definition_arrow(fr, fr.full_mask, s | t) for t in H] for s in H]
    assert A == [[definition_arrow(fr, s, t) for t in H] for s in H]


# -- the grids of n^2 conditionals ------------------------------------------
# _set_grids builds every such grid now; the two tests below keep the names
# they had when a uint64 word kernel built them.

@pytest.mark.parametrize("m", list(range(1, 11)) + [63, 64, 65, 130])
def test_kernel_matches_the_scalar_arrow_cell_for_cell(m):
    rng = Random(m)
    for density in (0.1, 0.5, 0.9):
        fr = random_frame(rng, m, density)
        # repeats (and, for small m, repeated unions) share closures in the grid
        H = [rng.randrange(fr.full_mask + 1) for _ in range(6)] + [0, fr.full_mask, 0]
        if m > 64:  # bits on both sides of bit 64
            H += [1 << 63 | 1 << 64, 1 << 64, 1 << 63]
        C, A = frames_module._set_grids(fr, H)
        assert len(C) == len(A) == len(H)
        for s, crow, arow in zip(H, C, A):
            assert len(crow) == len(arow) == len(H)
            for t, c, a in zip(H, crow, arow):
                assert c == fr.closure(s | t) == definition_arrow(fr, fr.full_mask, s | t)
                assert a == fr.arrow(s, t) == definition_arrow(fr, s, t), (s, t)


@pytest.mark.parametrize("m", (3, 64, 65))
def test_kernel_refuses_masks_outside_the_frame(m):
    fr = random_frame(Random(0), m)
    full = fr.full_mask
    for bad in (full + 1, 1 << m + 1 | 1, -1):
        msg = f"mask {bad:#x} addresses points outside this {m}-point frame"
        for H in ([bad], [0, bad]):
            with pytest.raises(WidthMismatch) as exc:
                frames_module._set_grids(fr, H)
            assert str(exc.value) == msg
        with pytest.raises(WidthMismatch):
            frames_module._set_grids(fr, [full, 1, bad])
    # the frame is unharmed: a family inside it still gets its grids
    C, A = frames_module._set_grids(fr, [0, full])
    assert C == [[fr.closure(0), full], [full, full]]
    assert A == [[fr.arrow(s, t) for t in (0, full)] for s in (0, full)]


def _lattice_key(fl):
    L = fl.lattice
    return (fl.sets, fl.op.table, L.meet_table, L.join_table,
            tuple(L.up_mask(a) for a in range(L.n)))


def _digest(keys):
    return hashlib.sha256(repr(keys).encode()).hexdigest()[:16]


def test_fixpoint_lattices_of_the_release_gate_frames_are_pinned():
    # the 1000 frames of acceptance criterion 13 and the four seeded
    # 8-point frames of the axiom tests, hashed as the scalar loops built them
    rng = Random(0)
    keys = []
    for _ in range(1000):
        fr = random_frame(rng, rng.randint(1, 8))
        for _ in range(16):
            rng.randrange(fr.full_mask + 1)
        keys.append(_lattice_key(fixpoints(fr)))
    assert _digest(keys) == "df5ad63a898b998c"
    seeded = [_lattice_key(fixpoints(random_frame(Random(s), 8))) for s in (4, 9, 17, 22)]
    assert _digest(seeded) == "ea2e0c60950b1f88"


def test_fixpoints_of_a_frame_of_more_than_64_points():
    # the pair frame of an 18-element algebra: 68 points, two words a mask
    fl = fixpoints(random_frame(Random(4), 8))
    fr = build_pair_frame(fl.lattice, fl.op).frame
    assert fr.m == 68
    got = fixpoints(fr)
    sets = closed_sets(fr.m, fr.closure, None)
    assert got.sets == tuple(sets) and len(sets) == 18
    assert got.op.table == tuple(
        tuple(sets.index(fr.arrow(s, t)) for t in sets) for s in sets
    )
    L = got.lattice
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            assert sets[L.meet(i, j)] == s & t
            assert sets[L.join(i, j)] == fr.closure(s | t)
    assert max(sets).bit_length() > 64


# -- forced failures, against the cell-by-cell loops ------------------------

def _reference_failure(frame, sets):
    """The first failure of the literal lattice checks and the table, cell
    by cell in row-major order with meet, join and the conditional tried
    in that order at each cell, as (message start, first cell)."""
    index = {s: i for i, s in enumerate(sets)}
    lat = FiniteLattice([set_label(frame, s) for s in sets],
                        [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets])
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            if sets[lat.meet(i, j)] != s & t:
                return "fixpoint meet is not intersection", (i, j)
            if sets[lat.join(i, j)] != frame.closure(s | t):
                return "fixpoint join is not closure of union", (i, j)
            if frame.arrow(s, t) not in index:
                return "conditional of fixpoints left the family", (i, j)
    return None


def _families(points, removals, rng):
    """Families of subsets of an edgeless reflexive frame (closure is the
    identity) with some sets removed, kept when they still form a lattice."""
    fr = RelationalFrame.from_edges([f"p{i}" for i in range(points)], (), reflexive=True)
    inner = list(range(1, fr.full_mask))
    out = []
    while len(out) < 12:
        gone = set(rng.sample(inner, removals))
        sets = [s for s in range(fr.full_mask + 1) if s not in gone]
        try:
            FiniteLattice([str(s) for s in sets],
                          [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets])
        except Exception:
            continue
        out.append(sets)
    return fr, out


@pytest.mark.parametrize("points", (3, 4))
def test_lattice_check_reports_the_first_failing_cell(monkeypatch, points):
    # 3 points: at most 7 sets; 4 points: at least 8, a grid of 64 cells or more
    rng = Random(points)
    fr, families = _families(points, 1 if points == 3 else 3, rng)
    seen = set()
    for sets in families:
        monkeypatch.setattr(frames_module, "closed_sets", lambda m, close, limit: sets)
        want = _reference_failure(fr, sets)
        assert want is not None
        msg, (i, j) = want
        names = [set_label(fr, s) for s in sets]
        with pytest.raises(InternalInconsistency) as exc:
            fixpoints(fr)
        assert str(exc.value) in (f"{msg} at ({names[i]},{names[j]})",
                                  f"{msg}: {names[i]} -> {names[j]}")
        assert (len(sets) ** 2 >= GRID_MIN_INSTANCES) == (points == 4)
        seen.add(msg.split()[1])
    assert {"meet", "join"} <= seen


def test_meet_is_reported_before_join_at_the_same_cell(monkeypatch):
    # without {0} and {0,1,2}: at ({0,1},{0,2}) both the meet {0} and the
    # join {0,1,2} are missing, and no earlier cell fails
    fr = RelationalFrame.from_edges([f"p{i}" for i in range(4)], (), reflexive=True)
    sets = [s for s in range(16) if s not in (0b0001, 0b0111, 0b0010, 0b0100)]
    monkeypatch.setattr(frames_module, "closed_sets", lambda m, close, limit: sets)
    want = _reference_failure(fr, sets)
    assert want == ("fixpoint meet is not intersection",
                    (sets.index(0b0011), sets.index(0b0101)))
    with pytest.raises(InternalInconsistency,
                       match=r"^fixpoint meet is not intersection at \(\{p0,p1\},\{p0,p2\}\)$"):
        fixpoints(fr)


def _frame_with(rng, lo, hi):
    while True:
        fr = random_frame(rng, 6)
        sets = closed_sets(fr.m, fr.closure, None)
        if lo <= len(sets) <= hi:
            return fr, sets


@pytest.mark.parametrize("lo,hi", ((3, 7), (9, 20)))
def test_a_conditional_leaving_the_family_is_named_at_its_first_cell(lo, hi):
    rng = Random(lo)
    named = 0
    for _ in range(10):
        fr, sets = _frame_with(rng, lo, hi)
        n = len(sets)
        # two cells away from the full antecedent, so closure is untouched
        cells = {(sets[rng.randrange(n - 1)], sets[rng.randrange(n)]): 1 << rng.randrange(fr.m)
                 for _ in range(2)}
        bad = TamperedFrame(fr, cells)
        want = _reference_failure(bad, sets)
        if want is None:
            assert fixpoints(bad).op.table != fixpoints(fr).op.table
            continue
        msg, (i, j) = want
        assert msg == "conditional of fixpoints left the family"
        with pytest.raises(InternalInconsistency) as exc:
            fixpoints(bad)
        assert str(exc.value) == (
            f"{msg}: {set_label(fr, sets[i])} -> {set_label(fr, sets[j])}"
        )
        named += 1
    assert named >= 5
