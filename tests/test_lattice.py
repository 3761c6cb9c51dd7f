from itertools import product
from random import Random

import numpy as np
import pytest

from condlat.errors import (
    CondlatError,
    MissingBound,
    NotALattice,
    NotAPartialOrder,
    NotBoolean,
    TooLarge,
)
from condlat.lattice import (
    FLAT_MIN_ELEMENTS,
    FiniteLattice,
    Rows,
    antichain_bounded,
    boolean_algebra,
    chain,
    first_violation,
    grid_axes,
)
from condlat import catalog
from condlat.frames import fixpoints, random_frame
from condlat.search import enumerate_lattices
from condlat.ops import ConditionalOp
from condlat.selection import ba_to_selection, from_well_order, induced_conditional
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
    assert _first_distributivity_failure(B) is None
    assert B.complement_map() == tuple(7 ^ a for a in range(8))
    assert B.names[0] == "0" and B.names[7] == "pqr"


@pytest.mark.parametrize("atoms, names", [
    (("0",), ("{}", "0")),
    (("1", "2", "12"), ("{}", "1", "2", "{1,2}", "12", "{1,12}", "{2,12}", "{1,2,12}")),
    (("0", "1", "2"), ("{}", "0", "1", "{0,1}", "2", "{0,2}", "{1,2}", "{0,1,2}")),
])
def test_boolean_algebra_names_subsets_apart_when_concatenations_collide(atoms, names):
    B = boolean_algebra(atoms)
    assert B.names == names
    assert all(B.names[1 << i] == a for i, a in enumerate(atoms))
    # the atoms keep their world names through the selection round trip
    op = induced_conditional(from_well_order(atoms))
    assert ba_to_selection(op.lattice, op).frame.names == atoms


def test_boolean_algebra_keeps_concatenated_names_and_refuses_what_it_did():
    assert boolean_algebra(()).names == ("0",)
    assert boolean_algebra(("p", "q")).names == ("0", "p", "q", "pq")
    assert boolean_algebra(("w0", "w1")).names == ("0", "w0", "w1", "w0w1")
    for atoms in (("p", "p"), ("x", "y", "x")):
        with pytest.raises(NotAPartialOrder, match="^duplicate element names$"):
            boolean_algebra(atoms)
    with pytest.raises(TooLarge):
        boolean_algebra("abcdefg")


@pytest.mark.parametrize("k", range(7))
def test_boolean_algebra_by_formula_equals_the_generic_constructor(k):
    B = boolean_algebra(tuple("pqrstu"[:k]))
    G = FiniteLattice(B.names, [sum(1 << b for b in range(1 << k) if a & ~b == 0)
                                for a in range(1 << k)])
    for field in ("n", "names", "full_mask", "bottom", "top", "_up", "_dn",
                  "meet_table", "join_table", "_index"):
        assert getattr(B, field) == getattr(G, field), field
    assert type(B.meet_table[0]) is type(G.meet_table[0]) is tuple
    assert all(type(x) is int for row in B.meet_table + B.join_table for x in row)
    for field in ("meet_array", "join_array", "leq_array"):
        got, want = getattr(B, field), getattr(G, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field


def _complement_map_by_calls(L):
    """complement_map as it was first written: for each element, every b
    with a∧b = bottom and a∨b = top by meet() and join() calls, the first kept."""
    out = []
    for a in range(L.n):
        cs = [b for b in range(L.n) if L.meet(a, b) == L.bottom and L.join(a, b) == L.top]
        if not cs:
            return None
        out.append(cs[0])
    return tuple(out)


def test_complement_map_reads_rows_as_the_per_element_loop_did():
    lattices = [L for n in range(1, 6) for L in enumerate_lattices(n)]
    lattices += [e.lattice for e in catalog.ENTRIES]
    got = [L.complement_map() for L in lattices]
    assert got == [_complement_map_by_calls(L) for L in lattices]
    assert None in got and any(c is not None for c in got)


def test_antichain_m3_not_distributive():
    M3 = antichain_bounded(("a", "b", "c"))
    assert M3.n == 5
    assert M3.atoms() == [1, 2, 3]
    a, b, c = _first_distributivity_failure(M3)
    assert (a, b, c) == (1, 2, 3)
    lhs = M3.meet(a, M3.join(b, c))
    rhs = M3.join(M3.meet(a, b), M3.meet(a, c))
    assert lhs != rhs


def test_pentagon_not_distributive_but_complemented():
    N5 = FiniteLattice.from_cover(
        ("0", "a", "b", "c", "1"), [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]
    )
    assert _first_distributivity_failure(N5) == (3, 1, 2)
    assert N5.complement_map() is not None


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
    for k in (0, -1):
        with pytest.raises(NotALattice, match="^empty carrier$"):
            chain(k)


def test_meet_join_masks():
    B = boolean_algebra(("p", "q"))
    assert B.join_mask(0) == B.bottom
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


@pytest.mark.parametrize("bad", [(-3, 1), (0, -1), (3, 1), ("z", 1), (0, "z")],
                         ids=["negative-below", "negative-above", "past-the-end",
                              "unknown-name-below", "unknown-name-above"])
def test_from_leq_refuses_references_outside_the_elements(bad):
    with pytest.raises(NotAPartialOrder, match=r"references unknown elements$"):
        FiniteLattice.from_leq(("a", "b", "c"), [(0, 1), (1, 2), bad])


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


def _distributivity_witness(L):
    """The first triple violating a∧(b∨c) = (a∧b)∨(a∧c) by first_violation:
    the scan below GRID_MIN_INSTANCES triples, numpy blocks above."""

    def fails(M, J, v):
        a, b, c = v
        return M[a][J[b][c]] != J[M[a][b]][M[a][c]]

    return first_violation(
        L.n, 3, lambda v: fails(L.meet_table, L.join_table, v),
        lambda *v: fails(Rows(L.meet_array), Rows(L.join_array), v))


@pytest.mark.parametrize("name", DISTRIBUTIVITY_CASES)
def test_distributivity_witness_is_the_first_failure(name):
    L = DISTRIBUTIVITY_CASES[name]
    assert _distributivity_witness(L) == _first_distributivity_failure(L)


def test_distributivity_cases_cover_both_verdicts():
    got = {name: _first_distributivity_failure(L) for name, L in DISTRIBUTIVITY_CASES.items()}
    assert got["B64"] is None
    assert all(got[f"fixpoints-seed{s}"] is not None for s in (4, 9, 17, 22))
    assert any(w is None for name, w in got.items() if name.startswith("n5"))
    assert any(w is not None for name, w in got.items() if name.startswith("n5"))


BOOLEAN_TRIALS = {
    **DISTRIBUTIVITY_CASES,
    **{f"n6-{i}": L for i, L in enumerate(enumerate_lattices(6))},
    **{f"catalog-{e.name}": e.lattice for e in catalog.ENTRIES},
    **{f"B{1 << k}": boolean_algebra("pqrstu"[:k]) for k in range(7)},
}


def test_round_trip_refuses_exactly_the_lattices_that_are_not_boolean():
    # the atom masks against "distributive and complemented"; a Boolean
    # lattice goes on to the axiom checks, where its meet table may fail
    boolean = 0
    for name, L in BOOLEAN_TRIALS.items():
        want = _first_distributivity_failure(L) is None and L.complement_map() is not None
        try:
            ba_to_selection(L, ConditionalOp(L, L.meet_table))
            refused = False
        except NotBoolean as exc:
            assert str(exc) == f"{L!r} is not a Boolean algebra"
            refused = True
        except CondlatError:
            refused = False
        assert refused != want, name
        boolean += want
    assert (len(BOOLEAN_TRIALS), boolean) == (56, 19)


def test_numpy_views_match_the_tables():
    for L in (antichain_bounded(("a", "b", "c")), boolean_algebra("pqrstu")):
        assert L.meet_array.tolist() == [list(r) for r in L.meet_table]
        assert L.join_array.tolist() == [list(r) for r in L.join_table]
        assert L.leq_array.tolist() == [[L.leq(a, b) for b in range(L.n)]
                                        for a in range(L.n)]


@pytest.mark.parametrize("n", [5, 12, 33, 64])
def test_rows_reads_like_two_dimensional_indexing(n):
    # n = 5 is read arr[a, b]; from FLAT_MIN_ELEMENTS on, through flat offsets
    assert (n >= FLAT_MIN_ELEMENTS) == (n != 5)
    arr = np.random.default_rng(n).integers(0, n, (n, n)).astype(np.uint8)
    X, k = Rows(arr), 3
    a, b, c = grid_axes(n, 3)
    a = a[n - k:]  # the last k rows: (k, 1, 1)
    g = arr[a, b]  # gathered uint8 indices: (k, n, 1)
    h = arr[g, c]  # (k, n, n)
    if n == 64:
        # a uint8 offset would wrap: row 63 starts at cell 4032
        assert int(g.max()) * n > 255 and int(h.max()) * n > 255
    cases = [
        (n - 1, 0), (0, n - 1),  # Python ints
        (a, n - 1), (a, a),  # (k, 1, 1)
        (a, b), (g, 0), (a, g),  # (k, n, 1)
        (n - 1, c), (c, c), (0, c),  # (1, 1, n)
        (g, c), (a, h), (h, h), (h, g), (h, 1), (h, c),  # (k, n, n)
    ]
    for i, j in cases:
        before = [np.copy(x) for x in (i, j)]
        got, want = X[i][j], arr[i, j]
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (i, j)
        assert np.asarray(got).dtype == arr.dtype
        # an in-place offset never writes into the caller's index arrays
        assert all(np.array_equal(x, y) for x, y in zip(before, (i, j)))
    assert {np.shape(X[i][j]) for i, j in cases[2:]} == {
        (k, 1, 1), (k, n, 1), (1, 1, n), (k, n, n)}


def test_grid_axes_are_cached_and_read_only():
    axes = grid_axes(7, 3)
    assert grid_axes(7, 3) is axes
    assert [x.shape for x in axes] == [(7, 1, 1), (1, 7, 1), (1, 1, 7)]
    for x in axes + (axes[0][2:4],):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1
