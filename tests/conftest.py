from itertools import product

import pytest

from condlat import catalog
from condlat.frames import RelationalFrame
from condlat.lattice import FiniteLattice
from condlat.ops import Axiom
from condlat.selection import SelectionFrameReport


@pytest.fixture
def b4():
    return catalog.entry("material-B4").lattice


@pytest.fixture
def quad_frame():
    return catalog.frame_entry("quad-two-way").frame


def names_at(lattice, witness):
    return tuple(lattice.names[i] for i in witness)


def _readme_axioms(L, T):
    """The axiom list of the README, written out apart from ops.AXIOM_DEFS,
    so neither the checkers nor the search is tested against its own
    definitions: axiom -> (arity, relation, instance -> (lhs, rhs))."""
    def imp(x, y):
        return T[x][y]

    def neg(x):
        return imp(x, L.bottom)

    m = L.meet
    return {
        Axiom.P1: (1, "le", lambda a: (imp(L.top, a), a)),
        Axiom.P2: (2, "le", lambda a, b: (m(a, b), imp(a, b))),
        Axiom.P3: (2, "le", lambda a, b: (imp(a, b), imp(a, m(a, b)))),
        Axiom.P4: (3, "le", lambda a, b, c: (imp(a, m(b, c)), imp(a, b))),
        Axiom.P5: (3, "le", lambda a, b, c: (imp(a, imp(m(a, b), c)), imp(m(a, b), c))),
        Axiom.MP: (2, "le", lambda a, b: (m(a, imp(a, b)), b)),
        Axiom.WM: (2, "le", lambda a, b: (b, imp(a, b))),
        Axiom.SEMI: (1, "eq", lambda a: (m(a, neg(a)), L.bottom)),
        Axiom.INV: (1, "eq", lambda a: (neg(neg(a)), a)),
        Axiom.ID: (1, "eq", lambda a: (imp(a, a), L.top)),
        Axiom.NORM: (3, "le", lambda a, b, c: (m(imp(a, b), imp(a, c)), imp(a, m(b, c)))),
        Axiom.NEGIMP: (2, "le", lambda a, b: (neg(imp(a, b)), imp(a, neg(b)))),
        Axiom.FLAT: (3, "eq", lambda a, b, c: (imp(a, imp(m(a, b), c)), imp(m(a, b), c))),
    }


def _product_scan(L, arity, relation, law):
    """(holds, witness, lhs, rhs) by the lexicographic scan of one README law."""
    for v in product(range(L.n), repeat=arity):
        lhs, rhs = law(*v)
        if (lhs != rhs) if relation == "eq" else not L.leq(lhs, rhs):
            return False, v, lhs, rhs
    return True, None, None, None


def definition_arrow(frame, A, B):
    """The frame conditional by its definition, two passes over the
    points: the points seeing into A ∩ B, then the points none of whose
    A-predecessors lies outside those."""
    AB = A & B
    good = 0
    for y in range(frame.m):
        if frame.successors(y) & AB:
            good |= 1 << y
    blocked = A & ~good
    out = 0
    for x in range(frame.m):
        if frame.predecessors(x) & blocked == 0:
            out |= 1 << x
    return out


def definition_check_frame(frame):
    """The four selection-frame properties by their definitions: one walk
    over (A, w) for the first three, and for strong density a walk over A
    ascending, its submasks C descending, then w and v ascending."""
    k, rel = frame.k, frame.rel
    succ_w = cent_w = func_w = dens_w = None
    for A in range(frame.full_mask + 1):
        for w in range(k):
            sel = rel[A][w]
            if succ_w is None and sel & ~A:
                v = (sel & ~A) & -(sel & ~A)
                succ_w = (A, w, v.bit_length() - 1)
            if cent_w is None and A >> w & 1 and sel != 1 << w:
                cent_w = (A, w)
            if func_w is None and bin(sel).count("1") > 1:
                func_w = (A, w)
    for A in range(frame.full_mask + 1):
        if dens_w:
            break
        C = A
        while True:  # C runs over the submasks of A, including A itself
            for w in range(k):
                sel = rel[C][w]
                for v in range(k):
                    if not sel >> v & 1:
                        continue
                    if not any(rel[C][u] >> v & 1 for u in range(k) if rel[A][w] >> u & 1):
                        dens_w = (A, C, w, v)
                        break
                if dens_w:
                    break
            if dens_w or C == 0:
                break
            C = (C - 1) & A
    return SelectionFrameReport(
        (succ_w is None, succ_w),
        (cent_w is None, cent_w),
        (func_w is None, func_w),
        (dens_w is None, dens_w),
    )


class TamperedFrame(RelationalFrame):
    """A copy of frame whose arrow flips points of the answer at the given
    (A, B) cells."""

    def __init__(self, frame, cells):
        super().__init__(frame.names, [frame.predecessors(x) for x in range(frame.m)])
        self.cells = dict(cells)

    def arrow(self, A, B):
        return super().arrow(A, B) ^ self.cells.get((A, B), 0)


def find_isomorphism(L1: FiniteLattice, L2: FiniteLattice, table1=None, table2=None):
    """A bijection phi with a <= b iff phi(a) <= phi(b), or None.

    When table1/table2 are given (n x n index tables), phi must also carry
    table1 entrywise onto table2.  Backtracking with degree invariants;
    meant for the small structures this package works with.
    """
    if L1.n != L2.n:
        return None
    n = L1.n

    def key(L, a):
        return (bin(L.down_mask(a)).count("1"), bin(L.up_mask(a)).count("1"))

    cands = []
    for a in range(n):
        k1 = key(L1, a)
        cs = [b for b in range(n) if key(L2, b) == k1]
        if not cs:
            return None
        cands.append(cs)

    phi = [-1] * n
    used = [False] * n

    def ok(a, b):
        for x in range(n):
            if phi[x] < 0:
                continue
            if L1.leq(a, x) != L2.leq(b, phi[x]):
                return False
            if L1.leq(x, a) != L2.leq(phi[x], b):
                return False
        return True

    def rec(a):
        if a == n:
            if table1 is not None:
                for x in range(n):
                    for y in range(n):
                        if phi[table1[x][y]] != table2[phi[x]][phi[y]]:
                            return False
            return True
        for b in cands[a]:
            if used[b] or not ok(a, b):
                continue
            phi[a] = b
            used[b] = True
            if rec(a + 1):
                return True
            phi[a] = -1
            used[b] = False
        return False

    if rec(0):
        return tuple(phi)
    return None
