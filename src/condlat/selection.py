"""Selection-function frames over a finite set of worlds.

For k worlds there is one selection relation per subset A, stored as
rel[A][w] = bitmask of worlds selected at w for antecedent A.  The
conditional of A and B holds at w when every world selected for A lies
in B.  Properties checked, each with a witness on failure:

* success: selected worlds lie in the antecedent;
* centering: a world inside the antecedent selects exactly itself;
* functionality: at most one selected world;
* strong density: a selection for A ∩ B factors through a selection
  for A.

``check_frame`` decides the first three over the (A, w) array
``rel_array`` and strong density over the pairs (A, C ⊆ A), A ascending
and C descending, in blocks through ``first_violation``; each failure
is the first in that order, and the density witness is confirmed, and
its worlds read, by the definition at that one pair.

``from_well_order`` realizes the canonical example: fix a total order
on worlds and select, for w and A, the first world of A at or after w;
worlds with nothing of A at or after them select nothing.  These frames
are functional and strongly dense, and their conditionals flatten.

``ba_to_selection`` goes the other way: a Boolean algebra whose table
passes the core axioms together with MP, ID, NORM and negation import
(taken with the Boolean complement) is turned into a selection frame on
its atoms, and the frame's conditional is verified to transport back to
the original table.  Booleanness is decided by the atom masks alone:
each element is sent to the set of atoms below it, which turns meets
into intersections, so the lattice is Boolean exactly when that map is
a bijection onto the 2^k sets of its k atoms; the complement of e is
then the element whose atom set is the complement of e's.  The
one-element algebra is Boolean with k = 0, but a frame needs a world,
so it is refused (PreconditionFailed) right after that test.

``SelectionFrame.arrows`` is the package's one selection conditional,
written on integer arrays of subset masks; the scalar ``arrow`` reads it
on one cell, and ``induced_conditional`` and the transport check of
``ba_to_selection`` read it on their whole grid.  Its per-world
definition loop lives on only as the test oracle.  The selection rows
of ``ba_to_selection`` are ``leq_array`` gathers reduced with
``np.bitwise_and``.  The negation-import scan searches its grid with
``first_violation``, which scans grids of fewer than GRID_MIN_INSTANCES
cells (at most two worlds) cell by cell; the negation-import law is
written once and read on the tuple tables and through ``Rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InternalInconsistency,
    NotBoolean,
    PreconditionFailed,
    TooLarge,
    WidthMismatch,
)
from .lattice import FiniteLattice, Rows, boolean_algebra, first_true_cell, first_violation
from .ops import (
    Axiom,
    ConditionalOp,
    check_axioms,
    PRECONDITIONAL_AXIOMS,
    require_own_lattice,
)

MAX_WORLDS = 16


def _guard_worlds(k: int):
    """Refuse more than MAX_WORLDS worlds before any 2^k row is built."""
    if k > MAX_WORLDS:
        raise TooLarge(f"{k} worlds exceeds the guard of {MAX_WORLDS}")


@dataclass(frozen=True)
class SelectionFrame:
    names: tuple
    rel: tuple  # rel[A][w] for every subset mask A

    def __post_init__(self):
        names = tuple(str(x) for x in self.names)
        k = len(names)
        if k == 0:
            raise WidthMismatch("a selection frame needs at least one world")
        _guard_worlds(k)
        if len(set(names)) != k:
            raise WidthMismatch("duplicate world names")
        full = (1 << k) - 1
        rel = tuple(tuple(int(x) for x in row) for row in self.rel)
        if len(rel) != full + 1:
            raise WidthMismatch(
                f"need one selection row per subset: {full + 1}, got {len(rel)}"
            )
        for row in rel:
            if len(row) != k:
                raise WidthMismatch("selection row length does not match world count")
            for mask in row:
                if mask & ~full:
                    raise WidthMismatch("selection mask references unknown worlds")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rel", rel)

    @property
    def k(self):
        return len(self.names)

    @property
    def full_mask(self):
        return (1 << len(self.names)) - 1

    def arrow(self, A: int, B: int) -> int:
        """The worlds of A -> B as a mask: ``arrows`` on one cell."""
        return int(self.arrows(A, B))

    @cached_property
    def rel_array(self):
        """rel as a (2^k, k) integer array, built on first use."""
        return np.array(self.rel, dtype=np.int64)

    def arrows(self, A, B):
        """A -> B over integer subset-mask arrays A and B that broadcast, as
        int64 masks: w is in A -> B when every world selected for A at w
        lies in B, that is rel[A][w] & ~B == 0.  Masks of any integer
        type are read; one outside 0..full_mask raises WidthMismatch."""
        A, B = np.asarray(A), np.asarray(B)
        full = self.full_mask
        if any((np.less(X, 0) | np.greater(X, full)).any() for X in (A, B)):
            raise WidthMismatch("subset mask outside this frame's worlds")
        A, B = A.astype(np.int64, copy=False), B.astype(np.int64, copy=False)
        inside = (self.rel_array[A] & ~B[..., None]) == 0
        return inside.astype(np.int64) @ (1 << np.arange(self.k))


@dataclass(frozen=True)
class SelectionFrameReport:
    success: tuple        # (holds, (A, w, v) | None)
    centering: tuple      # (holds, (A, w) | None)
    functionality: tuple  # (holds, (A, w) | None)
    strong_density: tuple # (holds, (A, C, w, v) | None)

    @property
    def ok(self):
        return all(
            x[0]
            for x in (self.success, self.centering,
                      self.functionality, self.strong_density)
        )


def _low(x: int) -> int:
    return (x & -x).bit_length() - 1


def _density_failure(rel, k: int, A: int, C: int):
    """(w, v) for the first world w and the lowest world v selected for C
    at w that no u selected for A at w selects for C, or None."""
    for w in range(k):
        seen = 0
        for u in range(k):
            if rel[A][w] >> u & 1:
                seen |= rel[C][u]
        if rel[C][w] & ~seen:
            return w, _low(rel[C][w] & ~seen)
    return None


def check_frame(frame: SelectionFrame) -> SelectionFrameReport:
    """The four properties of the frame, each with its first failure.

    Success, centering and functionality are decided over the (A, w)
    table rel_array, the first failure in ascending (A, w) order.  Strong
    density is decided over the grid of pairs (A, C), A ascending and C
    descending, where only C ⊆ A counts: a pair fails when, at some w, a
    world selected for C is selected for C by no u selected for A.  That
    grid runs through first_violation, one block of pairs at a time, and
    the witness w and v are read at the first failing pair.
    """
    k, rel, R = frame.k, frame.rel, frame.rel_array
    n = 1 << k
    A, w = np.arange(n)[:, None], np.arange(k)
    outside = R & ~A
    succ_w = first_true_cell(outside != 0)
    cent_w = first_true_cell((A >> w & 1 == 1) & (R != 1 << w))
    func_w = first_true_cell(R & (R - 1) != 0)
    if succ_w:
        succ_w += (_low(int(outside[succ_w])),)

    def fails(v):
        a, c = v[0], n - 1 - v[1]
        return c & ~a == 0 and _density_failure(rel, k, a, c) is not None

    def block(a, c):
        # the pairs with C ⊆ A only: sel is rel[C][w], and seen the union
        # of rel[C][u] over the u selected for A at w
        C = n - 1 - c
        sub = C & ~a == 0
        S, sel = R[np.broadcast_to(a, sub.shape)[sub]], R[np.broadcast_to(C, sub.shape)[sub]]
        seen = np.zeros_like(sel)
        for u in range(k):
            seen |= (S >> u & 1) * sel[:, u, None]
        out = np.zeros(sub.shape, bool)
        out[sub] = (sel & ~seen != 0).any(-1)
        return out

    dens_w = first_violation(n, 2, fails, block)
    if dens_w:
        a, c = dens_w[0], n - 1 - dens_w[1]
        dens_w = (a, c, *_density_failure(rel, k, a, c))
    return SelectionFrameReport(
        (succ_w is None, succ_w),
        (cent_w is None, cent_w),
        (func_w is None, func_w),
        (dens_w is None, dens_w),
    )


def from_well_order(names, order=None) -> SelectionFrame:
    """Select the first world of A at or after w in the given total order.

    order lists world indices from least to greatest; default is index
    order.  A world with nothing of A at or after it selects nothing.
    """
    names = tuple(str(x) for x in names)
    k = len(names)
    _guard_worlds(k)
    if order is None:
        order = tuple(range(k))
    order = tuple(order)
    if sorted(order) != list(range(k)):
        raise WidthMismatch("order must be a permutation of the worlds")
    rank = [0] * k
    for pos, w in enumerate(order):
        rank[w] = pos
    rel = []
    for A in range(1 << k):
        row = []
        for w in range(k):
            hit = 0
            for pos in range(rank[w], k):
                v = order[pos]
                if A >> v & 1:
                    hit = 1 << v
                    break
            row.append(hit)
        rel.append(tuple(row))
    return SelectionFrame(names, tuple(rel))


def induced_conditional(frame: SelectionFrame):
    """The frame's conditional as a table over the powerset algebra.

    Element index i of the returned lattice is exactly the subset with
    bitmask i, so subset masks and element indices can be identified.
    """
    lat = boolean_algebra(frame.names)
    masks = np.arange(lat.n)
    return ConditionalOp(lat, frame.arrows(masks[:, None], masks).tolist())


# NEGIMP is checked separately against the Boolean complement: the derived
# negation a -> 0 can be strictly smaller (an antecedent may select nothing
# at some world), and the representation argument needs the complement form.
BA_AXIOMS = PRECONDITIONAL_AXIOMS + (Axiom.MP, Axiom.ID, Axiom.NORM)


@dataclass(frozen=True)
class SelectionModel:
    frame: SelectionFrame
    atoms: tuple          # lattice atom indices, in world order
    element_mask: tuple   # element -> bitmask over atom positions


def ba_to_selection(lattice: FiniteLattice, op: ConditionalOp) -> SelectionModel:
    """Represent a Boolean conditional algebra on a frame over its atoms.

    w selects v for antecedent hat(a) iff every b with w <= a -> b has
    v <= b.  The result is verified to be a centered, functional,
    strongly dense frame whose conditional transports back to the input
    table; both verifications are theorems given the preconditions, so
    their failure raises InternalInconsistency.
    """
    require_own_lattice(lattice, op)
    L, T = lattice, op.table
    # Boolean exactly when the atom sets of the elements are the 2^k
    # subsets of the k atoms, each once (module docstring)
    atoms = tuple(L.atoms())
    k = len(atoms)
    element_mask = tuple(sum(1 << p for p, a in enumerate(atoms) if L.leq(a, e))
                         for e in range(L.n))
    element_of = {m: e for e, m in enumerate(element_mask)}
    if len(element_of) != L.n or L.n != 1 << k:
        raise NotBoolean(f"{L!r} is not a Boolean algebra")
    if not k:
        raise PreconditionFailed(
            "the one-element Boolean algebra has the empty atom set, and a"
            " selection frame needs at least one world"
        )
    full = (1 << k) - 1
    neg = [element_of[full ^ m] for m in element_mask]
    report = check_axioms(op, BA_AXIOMS)
    if not report.ok:
        bad = report.failing()[0]
        raise PreconditionFailed(f"required axiom fails: {bad.describe(L.names)}")

    def negimp_fails(M, N, T, v):
        # ¬(a -> b) <= a -> ¬b, with x <= y read as x ∧ y = x
        a, b = v
        lhs = N[T[a][b]]
        return M[lhs][T[a][N[b]]] != lhs

    bad = first_violation(
        L.n, 2, lambda v: negimp_fails(L.meet_table, neg, T, v),
        lambda *v: negimp_fails(Rows(L.meet_array), np.array(neg),
                                Rows(op.table_array), v))
    if bad:
        raise PreconditionFailed(
            f"required axiom fails: {Axiom.NEGIMP.value} with the Boolean"
            f" complement fails at ({L.names[bad[0]]},{L.names[bad[1]]})"
        )

    # w selects within the meet of the b with w <= a -> b, as a mask over atoms
    antecedents = [element_of[A] for A in range(1 << k)]
    sees = L.leq_array[np.array(atoms, dtype=np.intp)[:, None],
                       op.table_array[antecedents, None, :]]
    rel = np.bitwise_and.reduce(np.where(sees, element_mask, full), axis=-1).tolist()
    frame = SelectionFrame(tuple(L.names[a] for a in atoms), tuple(rel))

    fcheck = check_frame(frame)
    if not fcheck.ok:
        raise InternalInconsistency(
            f"derived frame violates a required property: {fcheck}"
        )

    # one grid of at most MAX_ELEMENTS^2 cells, read whole
    EM = np.array(element_mask)
    bad = first_true_cell(frame.arrows(EM[:, None], EM) != EM[op.table_array])
    if bad:
        raise InternalInconsistency(
            f"transported conditional differs at ({L.names[bad[0]]},{L.names[bad[1]]})"
        )
    return SelectionModel(frame, atoms, element_mask)
