import tracemalloc
from random import Random

import pytest

from condlat import catalog
from condlat.errors import (
    NotBoolean,
    PreconditionFailed,
    TooLarge,
    WidthMismatch,
)
from condlat.lattice import chain
from condlat.ops import (
    Axiom,
    PRECONDITIONAL_AXIOMS,
    check_axiom,
    check_axioms,
    check_flattening,
)
from condlat.selection import (
    MAX_WORLDS,
    SelectionFrame,
    ba_to_selection,
    check_frame,
    from_well_order,
    induced_conditional,
    random_centered_frame,
)


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
    assert check_flattening(op).holds


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
