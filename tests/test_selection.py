import hashlib
import tracemalloc
from itertools import permutations
from random import Random

import numpy as np
import pytest

from condlat import catalog
from condlat import selection as selection_module
from condlat.errors import (
    InternalInconsistency,
    NotBoolean,
    PreconditionFailed,
    TooLarge,
    WidthMismatch,
)
from condlat.lattice import FiniteLattice, chain
from condlat.ops import (
    Axiom,
    ConditionalOp,
    PRECONDITIONAL_AXIOMS,
    check_axiom,
    check_axioms,
)
from condlat.selection import (
    MAX_WORLDS,
    SelectionFrame,
    ba_to_selection,
    check_frame,
    from_well_order,
    induced_conditional,
)
from conftest import definition_check_frame, definition_selection_arrow, random_centered_frame


def test_frame_validation():
    with pytest.raises(WidthMismatch):
        SelectionFrame((), ())
    with pytest.raises(WidthMismatch):
        SelectionFrame(("w",), ((0,),))  # needs 2 rows for 1 world
    with pytest.raises(WidthMismatch):
        SelectionFrame(("w",), ((2,), (0,)))  # mask outside the worlds
    with pytest.raises(TooLarge):
        from_well_order([f"w{i}" for i in range(MAX_WORLDS + 1)])


@pytest.mark.parametrize("k", (MAX_WORLDS + 1, 40))
def test_world_guard_fires_before_any_row_is_built(k):
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            from_well_order([f"w{i}" for i in range(k)])
        with pytest.raises(TooLarge):
            random_centered_frame(Random(0), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_well_order_properties_k3():
    wo = from_well_order(("w0", "w1", "w2"))
    rep = check_frame(wo)
    assert rep.ok
    assert rep.success[0] and rep.centering[0]
    assert rep.functionality[0] and rep.strong_density[0]


def test_well_order_selection_is_first_at_or_after():
    wo = from_well_order(("a", "b", "c"))
    # antecedent {b}: a selects b, b selects b, c selects nothing
    assert wo.rel[0b010] == (0b010, 0b010, 0)
    # antecedent {a,c}: b selects c, c selects c
    assert wo.rel[0b101] == (0b001, 0b100, 0b100)


def test_well_order_respects_custom_order():
    wo = from_well_order(("a", "b"), order=(1, 0))
    # order b < a: at a, nothing of {b} is at or after a
    assert wo.rel[0b10] == (0, 0b10)
    assert wo.rel[0b01][1] == 0b01  # b comes before a, so b sees a
    with pytest.raises(WidthMismatch):
        from_well_order(("a", "b"), order=(0, 0))


def test_induced_conditional_passes_core_axioms_and_flattens():
    wo = from_well_order(("w0", "w1", "w2"))
    op = induced_conditional(wo)
    assert check_axioms(op, PRECONDITIONAL_AXIOMS + (Axiom.MP, Axiom.ID)).ok
    assert check_axiom(op, Axiom.FLAT).holds


def test_induced_conditional_identifies_masks_with_indices():
    wo = from_well_order(("p", "q"))
    op = induced_conditional(wo)
    for A in range(4):
        for B in range(4):
            assert op.table[A][B] == wo.arrow(A, B)


def test_density_gap_fixture_breaks_p5():
    gap = catalog.selection_entry("density-gap-3")
    rep = check_frame(gap.frame)
    assert not rep.strong_density[0]
    op = induced_conditional(gap.frame)
    c = check_axiom(op, Axiom.P5)
    assert not c.holds and c.witness == (6, 4, 0)


def test_select_all_fixture_fails_functionality_only():
    sa = catalog.selection_entry("select-all-3")
    rep = check_frame(sa.frame)
    assert rep.success[0] and rep.centering[0] and rep.strong_density[0]
    assert not rep.functionality[0]
    # its conditional still passes every axiom the round trip asks for
    op = induced_conditional(sa.frame)
    assert check_axioms(
        op, PRECONDITIONAL_AXIOMS + (Axiom.MP, Axiom.ID, Axiom.NORM)
    ).ok


def test_round_trip_b4_and_b8_bit_exact():
    for worlds in (("p", "q"), ("w0", "w1", "w2")):
        wo = from_well_order(worlds)
        op = induced_conditional(wo)
        model = ba_to_selection(op.lattice, op)
        assert model.frame.rel == wo.rel
        assert model.frame.names == wo.names


def test_round_trip_rejects_non_functional_frame():
    sa = catalog.selection_entry("select-all-3")
    op = induced_conditional(sa.frame)
    with pytest.raises(PreconditionFailed, match="NEGIMP"):
        ba_to_selection(op.lattice, op)


def test_round_trip_rejects_non_boolean_lattice():
    L = chain(3)
    from condlat.ops import heyting_residual
    with pytest.raises(NotBoolean):
        ba_to_selection(L, heyting_residual(L))


def test_round_trip_rejects_missing_axiom():
    from condlat.lattice import boolean_algebra
    from condlat.ops import ConditionalOp
    B = boolean_algebra(("p", "q"))
    op = ConditionalOp(B, B.meet_table)  # meet fails ID on a 4-element algebra
    with pytest.raises(PreconditionFailed, match="ID"):
        ba_to_selection(B, op)


def test_round_trip_element_masks():
    wo = from_well_order(("p", "q"))
    op = induced_conditional(wo)
    model = ba_to_selection(op.lattice, op)
    # boolean_algebra indices are already atom masks
    assert model.element_mask == tuple(range(4))


# -- check_frame against its definition ----------------------------------

def test_check_frame_matches_the_definition_on_every_small_well_order():
    for k in range(1, 6):
        for order in permutations(range(k)):
            fr = from_well_order([f"w{i}" for i in range(k)], order)
            rep = check_frame(fr)
            assert rep.ok and rep == definition_check_frame(fr), (k, order)
    rng = Random(6)
    for _ in range(4):
        fr = from_well_order([f"w{i}" for i in range(6)], rng.sample(range(6), 6))
        assert check_frame(fr) == definition_check_frame(fr)
    # 7 and 9 worlds: the density grid runs in more than one block
    fr = from_well_order([f"w{i}" for i in range(7)], rng.sample(range(7), 7))
    assert check_frame(fr) == definition_check_frame(fr)
    fr = random_centered_frame(rng, 9)
    assert check_frame(fr) == definition_check_frame(fr)


def test_check_frame_matches_the_definition_on_random_centered_frames():
    rng = Random(12)
    failing = 0
    for _ in range(320):
        fr = random_centered_frame(rng, rng.randint(1, 6))
        rep = check_frame(fr)
        assert rep == definition_check_frame(fr), fr.rel
        failing += not rep.strong_density[0]
    assert failing >= 100


def _well_order_with(changes):
    """The 4-world well-order frame in index order with rel[A][w] = x for
    each ((A, w), x) of changes."""
    base = from_well_order([f"w{i}" for i in range(4)])
    rel = [list(row) for row in base.rel]
    for (A, w), x in changes.items():
        rel[A][w] = x
    return SelectionFrame(base.names, rel)


@pytest.mark.parametrize("changes, prop, witness", [
    # success: two worlds outside {w2,w3} selected at w1; the lowest is named
    ({(12, 1): 0b0111, (14, 0): 0b1001}, "success", (12, 1, 0)),
    ({(14, 3): 0b0100, (15, 1): 0b0100}, "centering", (14, 3)),
    ({(15, 2): 0b1100, (15, 3): 0b1001}, "functionality", (15, 2)),
    # the pairs (14, C) fail for C = 12, 10, 6, 4 and 2: C descending names 12
    ({(14, 0): 0b1000}, "strong_density", (14, 12, 0, 2)),
    # at (7, 3), w3 selects {w0,w1} for {w0,w1}, and neither is seen: v = 0
    ({(7, 3): 0b0100, (3, 3): 0b0011}, "strong_density", (7, 3, 3, 0)),
])
def test_check_frame_names_late_first_failures_like_the_definition(changes, prop, witness):
    fr = _well_order_with(changes)
    rep = check_frame(fr)
    assert rep == definition_check_frame(fr)
    assert getattr(rep, prop) == (False, witness)


def test_500_random_dense_frames_induce_core_tables():
    rng = Random(11)
    kept = 0
    while kept < 500:
        k = rng.randint(1, 4)
        fr = random_centered_frame(rng, k)
        rep = check_frame(fr)
        assert rep.success[0] and rep.centering[0]
        if not rep.strong_density[0]:
            continue
        kept += 1
        op = induced_conditional(fr)
        got = check_axioms(op, PRECONDITIONAL_AXIOMS)
        assert got.ok, (fr.rel, got.failing()[0].describe())


# -- the selection kernel ------------------------------------------------

def _frames(k):
    rng = Random(k)
    yield from_well_order([f"w{i}" for i in range(k)])
    yield from_well_order([f"w{i}" for i in range(k)], tuple(rng.sample(range(k), k)))
    for _ in range(3):
        yield random_centered_frame(rng, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_selection_kernel_matches_the_scalar_arrow_cell_for_cell(k):
    n = 1 << k
    E = np.arange(n)
    for fr in _frames(k):
        want = [[definition_selection_arrow(fr, A, B) for B in range(n)] for A in range(n)]
        assert fr.arrows(E[:, None], E[None, :]).tolist() == want
        assert [[fr.arrow(A, B) for B in range(n)] for A in range(n)] == want
        assert fr.arrows(E[-1], E).tolist() == want[-1]
        assert fr.arrows(E[:, None], 0)[:, 0].tolist() == [row[0] for row in want]
        for A, B in ((n, 0), (0, n), (-1, 0)):
            with pytest.raises(WidthMismatch):
                fr.arrows(np.array([0, A]), np.array([0, B]))


# the frame below has 3 worlds, so 1 << 3 is the first mask outside them
@pytest.mark.parametrize("bad", (-1, 1 << 3, 2**63, 2**64 - 1, 2**70, np.uint64(9)),
                         ids=("-1", "1<<k", "2^63", "2^64-1", "2^70", "uint64(9)"))
def test_every_mask_outside_the_worlds_is_refused(bad):
    fr = from_well_order(("p", "q", "r"))
    outside = "subset mask outside this frame's worlds"
    for A, B in ((bad, 0), (0, bad)):
        with pytest.raises(WidthMismatch, match=outside):
            fr.arrow(A, B)
        with pytest.raises(WidthMismatch, match=outside):
            fr.arrows(A, B)
        with pytest.raises(WidthMismatch, match=outside):
            fr.arrows(np.array([0, A]), np.array([0, B]))
    # in-range masks of any integer type give the int64 answer
    E = np.arange(8)
    want = fr.arrows(E[:, None], E)
    assert want.dtype == np.int64
    for dtype in (np.uint8, np.uint64):
        got = fr.arrows(E.astype(dtype)[:, None], E.astype(dtype))
        assert got.dtype == np.int64 and (got == want).all()
    assert fr.arrow(np.uint64(5), np.uint8(3)) == int(want[5, 3])


def test_induced_conditional_always_uses_the_kernel(monkeypatch):
    calls = []
    kernel = SelectionFrame.arrows

    def spy(self, A, B):
        calls.append(self.k)
        return kernel(self, A, B)

    monkeypatch.setattr(SelectionFrame, "arrows", spy)
    for k in range(1, 7):
        calls.clear()
        op = induced_conditional(from_well_order([f"w{i}" for i in range(k)]))
        assert calls == [k]
        calls.clear()
        ba_to_selection(op.lattice, op)
        # the transport check: one grid at every k
        assert calls == [k]


def test_well_order_tables_and_round_trips_are_pinned():
    # as the cell-by-cell loops built them, for both orders on 1..6 worlds
    out = []
    for k in range(1, 7):
        for order in (tuple(range(k)), tuple(reversed(range(k)))):
            wo = from_well_order([f"w{i}" for i in range(k)], order)
            op = induced_conditional(wo)
            model = ba_to_selection(op.lattice, op)
            assert model.frame.rel == wo.rel
            out.append((op.table, model.frame.rel, model.atoms, model.element_mask))
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == "378c13bffc5b8976"


def test_round_trip_takes_no_complement_map(monkeypatch):
    # Booleanness and the complement are read off the atom masks
    calls = []
    complement_map = FiniteLattice.complement_map

    def spy(self):
        calls.append(self.n)
        return complement_map(self)

    monkeypatch.setattr(FiniteLattice, "complement_map", spy)
    op = induced_conditional(from_well_order(("p", "q", "r")))
    ba_to_selection(op.lattice, op)
    with pytest.raises(NotBoolean, match="is not a Boolean algebra"):
        ba_to_selection(chain(3), ConditionalOp(chain(3), chain(3).join_table))
    assert calls == []


def test_round_trip_refuses_the_one_element_algebra():
    # Boolean with no atoms: refused after the atom pass, before any frame
    L = chain(1)
    with pytest.raises(PreconditionFailed, match="empty atom set"):
        ba_to_selection(L, ConditionalOp(L, L.meet_table))


def _first_negimp_failure(L, T, neg):
    for a in range(L.n):
        for b in range(L.n):
            if not L.leq(neg[T[a][b]], T[a][neg[b]]):
                return a, b
    return None


def _widened_well_order(rng, k):
    """A random well-order frame in which a few worlds outside an
    antecedent also select further worlds of it, so it need not be
    functional."""
    wo = from_well_order([f"w{i}" for i in range(k)], rng.sample(range(k), k))
    rel = [list(row) for row in wo.rel]
    for _ in range(rng.randint(1, 3)):
        A, w = rng.randrange(1 << k), rng.randrange(k)
        if not A >> w & 1:
            rel[A][w] |= rng.randrange(1 << k) & A
    return SelectionFrame(wo.names, rel)


@pytest.mark.parametrize("k", (3, 4))
def test_negimp_failure_is_named_at_its_first_cell(k):
    # tables of frames that are not functional: those passing every other
    # precondition can fail NEGIMP, named at the first cell of the scan
    # with the complement map as the oracle (two worlds leave no room for
    # a failure: every two-world frame with success is functional)
    rng, named = Random(k), []
    for _ in range(400):
        op = induced_conditional(_widened_well_order(rng, k))
        if not check_axioms(op, selection_module.BA_AXIOMS).ok:
            continue
        L = op.lattice
        first = _first_negimp_failure(L, op.table, L.complement_map())
        if first is None:
            ba_to_selection(L, op)
            continue
        a, b = first
        with pytest.raises(PreconditionFailed) as exc:
            ba_to_selection(L, op)
        assert str(exc.value).endswith(
            f"NEGIMP with the Boolean complement fails at ({L.names[a]},{L.names[b]})"
        )
        named.append(first)
    assert len(named) >= 10 and len(set(named)) >= 2


def test_select_all_fails_negimp_at_the_first_cell_of_the_scan():
    op = induced_conditional(catalog.selection_entry("select-all-3").frame)
    L = op.lattice
    a, b = _first_negimp_failure(L, op.table, L.complement_map())
    with pytest.raises(PreconditionFailed,
                       match=rf"fails at \({L.names[a]},{L.names[b]}\)$"):
        ba_to_selection(L, op)


def _tampered_frames(cells):
    """A SelectionFrame class whose conditional flips worlds of the answer
    at the given (A, B) cells."""

    class Tampered(SelectionFrame):
        def arrows(self, A, B):
            out = super().arrows(A, B).copy()
            A, B = np.broadcast_to(A, out.shape), np.broadcast_to(B, out.shape)
            for (a, b), flip in cells.items():
                out[(A == a) & (B == b)] ^= flip
            return out

    return Tampered


@pytest.mark.parametrize("k", (2, 3, 4))
def test_transport_failure_is_named_at_its_first_cell(monkeypatch, k):
    op = induced_conditional(from_well_order([f"w{i}" for i in range(k)]))
    n = op.lattice.n
    rng = Random(k)
    for _ in range(5):
        # boolean_algebra indices are atom masks, so cells are (A, B) pairs
        cells = {(rng.randrange(n), rng.randrange(n)): 1 << rng.randrange(k) for _ in range(3)}
        monkeypatch.setattr(selection_module, "SelectionFrame", _tampered_frames(cells))
        a, b = min(cells)
        with pytest.raises(InternalInconsistency,
                           match=rf"^transported conditional differs at "
                                 rf"\({op.lattice.names[a]},{op.lattice.names[b]}\)$"):
            ba_to_selection(op.lattice, op)
