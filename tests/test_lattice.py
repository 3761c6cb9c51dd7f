from itertools import product
from random import Random

import pytest

from condlat.errors import (
    MissingBound,
    NotALattice,
    NotAPartialOrder,
    TooLarge,
)
from condlat.lattice import (
    FiniteLattice,
    antichain_bounded,
    boolean_algebra,
    chain,
)
from condlat.frames import fixpoints, random_frame
from condlat.search import enumerate_lattices
from conftest import find_isomorphism


def test_chain_order_and_tables():
    L = chain(4)
    assert (L.bottom, L.top) == (0, 3)
    for a in range(4):
        for b in range(4):
            assert L.leq(a, b) == (a <= b)
            assert L.meet(a, b) == min(a, b)
            assert L.join(a, b) == max(a, b)
    assert L.covers() == [(0, 1), (1, 2), (2, 3)]


def test_singleton_is_accepted():
    L = chain(1)
    assert L.bottom == L.top == 0
    assert L.meet(0, 0) == L.join(0, 0) == 0


def test_boolean_algebra_is_subset_order():
    B = boolean_algebra(("p", "q", "r"))
    assert B.n == 8
    for a in range(8):
        for b in range(8):
            assert B.leq(a, b) == (a & ~b == 0)
            assert B.meet(a, b) == a & b
            assert B.join(a, b) == a | b
    assert B.is_boolean()
    assert B.complement_map() == tuple(7 ^ a for a in range(8))
    assert B.names[0] == "0" and B.names[7] == "pqr"


def test_antichain_m3_not_distributive():
    M3 = antichain_bounded(("a", "b", "c"))
    assert M3.n == 5
    assert M3.atoms() == [1, 2, 3] and M3.coatoms() == [1, 2, 3]
    assert not M3.is_distributive()
    a, b, c = M3.distributivity_witness()
    assert (a, b, c) == (1, 2, 3)
    lhs = M3.meet(a, M3.join(b, c))
    rhs = M3.join(M3.meet(a, b), M3.meet(a, c))
    assert lhs != rhs


def test_pentagon_not_distributive_but_complemented():
    N5 = FiniteLattice.from_cover(
        ("0", "a", "b", "c", "1"), [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]
    )
    assert not N5.is_distributive()
    assert N5.distributivity_witness() == (3, 1, 2)
    assert N5.complement_map() is not None
    assert not N5.is_boolean()


def test_rejections_have_specific_types():
    with pytest.raises(NotAPartialOrder, match="^a <= b and b <= a$"):
        FiniteLattice.from_leq(("a", "b"), [(0, 1), (1, 0)])
    with pytest.raises(NotAPartialOrder, match="^b <= c and c <= b$"):
        # a cycle b <= c <= d <= b: the first pair in index order is named
        FiniteLattice.from_leq(("a", "b", "c", "d"), [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(NotAPartialOrder, match="^duplicate element names$"):
        FiniteLattice(("a", "a"), (0, 0))
    with pytest.raises(NotAPartialOrder, match="^row for a references unknown elements$"):
        FiniteLattice(("a", "b"), (0b100, 0))
    with pytest.raises(NotAPartialOrder, match="^relation row count does not match"):
        FiniteLattice(("a", "b"), (0, 0, 0))
    with pytest.raises(MissingBound, match="^no global bottom$"):
        # two incomparable points: no bottom
        FiniteLattice(("a", "b"), (1, 2))
    with pytest.raises(MissingBound, match="^no global top$"):
        FiniteLattice(("0", "a", "b"), (0b111, 0b010, 0b100))
    # two middle antichains stacked: the atoms have no join and the
    # coatoms no meet; the first failing pair in index order is reported,
    # its meet before its join
    with pytest.raises(NotALattice, match="^a and b have no join$"):
        FiniteLattice.from_cover(
            ("0", "a", "b", "c", "d", "1"),
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
        )
    with pytest.raises(NotALattice, match="^c and d have no meet$"):
        FiniteLattice.from_cover(
            ("0", "c", "d", "a", "b", "1"),
            [(0, 3), (0, 4), (3, 1), (3, 2), (4, 1), (4, 2), (1, 5), (2, 5)],
        )
    with pytest.raises(TooLarge, match="^65 elements exceeds the size guard of 64$"):
        chain(65)
    with pytest.raises(NotALattice, match="^empty carrier$"):
        FiniteLattice((), ())


def test_meet_join_masks():
    B = boolean_algebra(("p", "q"))
    assert B.meet_mask(0) == B.top
    assert B.join_mask(0) == B.bottom
    assert B.meet_mask(0b1010) == B.meet(1, 3)
    assert B.join_mask(0b0110) == B.join(1, 2)


def test_index_lookup():
    L = chain(3, ("bot", "mid", "top"))
    assert L.index("mid") == 1
    with pytest.raises(ValueError):
        L.index("nope")


def test_from_leq_takes_closure():
    # only the generating pairs, no transitivity spelled out
    L = FiniteLattice.from_leq(("0", "a", "1"), [(0, 1), (1, 2)])
    assert L.leq(0, 2)
    assert L.top == 2


def test_up_down_masks_are_consistent():
    M3 = antichain_bounded(("x", "y", "z"))
    for a in range(M3.n):
        for b in range(M3.n):
            assert (M3.up_mask(a) >> b & 1) == M3.leq(a, b)
            assert (M3.down_mask(a) >> b & 1) == M3.leq(b, a)


def test_find_isomorphism_respects_order_and_tables():
    B = boolean_algebra(("p", "q"))
    # same shape, shuffled names
    C = FiniteLattice.from_cover(
        ("bot", "left", "right", "top"), [(0, 1), (0, 2), (1, 3), (2, 3)]
    )
    phi = find_isomorphism(B, C)
    assert phi is not None
    assert phi[B.bottom] == C.bottom and phi[B.top] == C.top
    assert find_isomorphism(B, chain(4)) is None

    # table-respecting map must exist for meet against itself
    t = B.meet_table
    assert find_isomorphism(B, B, t, t) is not None
    # but not from meet onto join
    assert find_isomorphism(B, B, t, B.join_table) is None


def _first_distributivity_failure(L):
    for a, b, c in product(range(L.n), repeat=3):
        if L.meet(a, L.join(b, c)) != L.join(L.meet(a, b), L.meet(a, c)):
            return (a, b, c)
    return None


DISTRIBUTIVITY_CASES = {
    **{f"n{n}-{i}": L for n in range(1, 6) for i, L in enumerate(enumerate_lattices(n))},
    # fixpoint lattices of seeded 8-point frames: 18, 19, 48 and 42 elements
    **{f"fixpoints-seed{s}": fixpoints(random_frame(Random(s), 8)).lattice
       for s in (4, 9, 17, 22)},
    "B64": boolean_algebra("pqrstu"),
}


@pytest.mark.parametrize("name", DISTRIBUTIVITY_CASES)
def test_distributivity_witness_is_the_first_failure(name):
    L = DISTRIBUTIVITY_CASES[name]
    assert L.distributivity_witness() == _first_distributivity_failure(L)


def test_distributivity_cases_cover_both_verdicts():
    got = {name: L.distributivity_witness() for name, L in DISTRIBUTIVITY_CASES.items()}
    assert got["B64"] is None
    assert all(got[f"fixpoints-seed{s}"] is not None for s in (4, 9, 17, 22))
    assert any(w is None for name, w in got.items() if name.startswith("n5"))
    assert any(w is not None for name, w in got.items() if name.startswith("n5"))


def test_numpy_views_match_the_tables():
    for L in (antichain_bounded(("a", "b", "c")), boolean_algebra("pqrstu")):
        assert L.meet_array.tolist() == [list(r) for r in L.meet_table]
        assert L.join_array.tolist() == [list(r) for r in L.join_table]
        assert L.leq_array.tolist() == [[L.leq(a, b) for b in range(L.n)]
                                        for a in range(L.n)]
