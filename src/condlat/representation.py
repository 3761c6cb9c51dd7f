"""Representing an algebra with a conditional inside a frame's fixpoints.

Two constructions, both starting from a lattice L with a table passing
the five core axioms.

Pair frame: points are the pairs (x, x -> y); a point (a, b) accesses
(c, d) exactly when c is not below b.  The candidate embedding sends a
to the set of points whose first coordinate is below a.  For finite L
this should be an isomorphism onto the whole fixpoint lattice; if the
candidate map fails, an isomorphism is searched for directly and the
report records that the fallback was used.

Filter-ideal space: points are the consonant pairs (up f, down i),
consonance meaning that f <= a and a ∧ b <= i force (a -> b) <= i.
(F, I) accesses (F', I') exactly when I misses F'.  The sets
hat(a) = {(F, I) : a in F} generate a topology in which they are
precisely the compact open fixpoints, and a |-> hat(a) is an
isomorphism onto those.  In a finite lattice every filter and ideal is
principal, so points are stored as generator index pairs (f, i).

``check_space_conditions`` evaluates, over any frame plus a designated
basis, the four conditions that characterize the spaces arising this
way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExhausted,
    EmbeddingNotVerified,
    InternalInconsistency,
)
from .frames import RelationalFrame, generate_from, singleton_generated
from .lattice import FiniteLattice, find_isomorphism
from .ops import ConditionalOp, require_preconditional

OPENS_BUDGET = 1 << 14


# -- pair frame --------------------------------------------------------

@dataclass(frozen=True)
class PairFrame:
    lattice: FiniteLattice
    op: ConditionalOp
    points: tuple          # (x, v) pairs, v some x -> y, sorted
    frame: RelationalFrame


def build_pair_frame(lattice: FiniteLattice, op: ConditionalOp) -> PairFrame:
    require_preconditional(op)
    L, T = lattice, op.table
    points = sorted({(x, T[x][y]) for x in range(L.n) for y in range(L.n)})
    names = [f"({L.names[x]},{L.names[v]})" for x, v in points]
    # (a, b) -> (c, d)  iff  not c <= b
    pred = [0] * len(points)
    for j, (c, _d) in enumerate(points):
        row = 0
        for i, (_a, b) in enumerate(points):
            if not L.leq(c, b):
                row |= 1 << i
        pred[j] = row
    return PairFrame(L, op, tuple(points), RelationalFrame(names, pred))


@dataclass(frozen=True)
class PairEmbeddingReport:
    ok: bool
    candidate_ok: bool
    fallback_used: bool
    failures: tuple
    fixpoint_count: int
    mapping: tuple | None  # element -> fixpoint index in the generated lattice


def verify_pair_embedding(pf: PairFrame, budget: int = 4096) -> PairEmbeddingReport:
    """Verify the candidate map is an isomorphism onto all fixpoints.

    The fixpoint lattice is built by singleton generation, which reaches
    every fixpoint without enumerating 2^|points| subsets.  Raises
    EmbeddingNotVerified only when no isomorphism exists at all.
    """
    L, T, fr = pf.lattice, pf.op.table, pf.frame
    fl = singleton_generated(fr, budget=budget)

    hat = []
    for a in range(L.n):
        mask = 0
        for i, (x, _v) in enumerate(pf.points):
            if L.leq(x, a):
                mask |= 1 << i
        hat.append(mask)

    failures = []
    for a in range(L.n):
        if fr.closure(hat[a]) != hat[a]:
            failures.append(f"image of {L.names[a]} is not a fixpoint")
            break
    if len(set(hat)) != L.n:
        failures.append("candidate map is not injective")
    if not failures:
        for a in range(L.n):
            for b in range(L.n):
                if hat[L.meet(a, b)] != hat[a] & hat[b]:
                    failures.append(f"meet not preserved at ({L.names[a]},{L.names[b]})")
                elif hat[L.join(a, b)] != fr.closure(hat[a] | hat[b]):
                    failures.append(f"join not preserved at ({L.names[a]},{L.names[b]})")
                elif hat[T[a][b]] != fr.arrow(hat[a], hat[b]):
                    failures.append(f"conditional not preserved at ({L.names[a]},{L.names[b]})")
                if failures:
                    break
            if failures:
                break
    if not failures and set(hat) != set(fl.sets):
        failures.append(
            f"candidate image has {len(set(hat))} fixpoints, frame has {len(fl.sets)}"
        )

    if not failures:
        mapping = tuple(fl.sets.index(hat[a]) for a in range(L.n))
        return PairEmbeddingReport(True, True, False, (), len(fl.sets), mapping)

    iso = find_isomorphism(L, fl.lattice, pf.op.table, fl.op.table)
    if iso is not None:
        return PairEmbeddingReport(
            True, False, True, tuple(failures), len(fl.sets), iso
        )
    raise EmbeddingNotVerified(
        "no isomorphism between the algebra and the pair frame fixpoints: "
        + "; ".join(failures),
        report=PairEmbeddingReport(
            False, False, True, tuple(failures), len(fl.sets), None
        ),
    )


# -- filter-ideal space ------------------------------------------------

def consonant(lattice: FiniteLattice, op: ConditionalOp, f: int, i: int) -> bool:
    """Does f <= a and a ∧ b <= i force (a -> b) <= i?"""
    L, T = lattice, op.table
    for a in range(L.n):
        if not L.leq(f, a):
            continue
        for b in range(L.n):
            if L.leq(L.meet(a, b), i) and not L.leq(T[a][b], i):
                return False
    return True


@dataclass(frozen=True)
class FilterIdealSpace:
    lattice: FiniteLattice
    op: ConditionalOp
    pairs: tuple           # (f, i) generator pairs, sorted
    frame: RelationalFrame
    basis: tuple           # basis[a] = point mask of hat(a)


def build_fi_space(lattice: FiniteLattice, op: ConditionalOp) -> FilterIdealSpace:
    require_preconditional(op)
    L, T = lattice, op.table
    pairs = tuple(
        (f, i)
        for f in range(L.n)
        for i in range(L.n)
        if consonant(L, op, f, i)
    )
    # sanity: the pairs the theory promises must be present
    promised = {(x, T[x][y]) for x in range(L.n) for y in range(L.n)}
    promised.update((L.top, b) for b in range(L.n))
    missing = promised.difference(pairs)
    if missing:
        raise InternalInconsistency(
            f"promised consonant pairs missing: {sorted(missing)[:4]}"
        )
    names = [f"[{L.names[f]},{L.names[i]}]" for f, i in pairs]
    # (F, I) -> (F', I')  iff  I ∩ F' = ∅  iff  not f' <= i
    pred = [0] * len(pairs)
    for j, (f2, _i2) in enumerate(pairs):
        row = 0
        for k, (_f1, i1) in enumerate(pairs):
            if not L.leq(f2, i1):
                row |= 1 << k
        pred[j] = row
    frame = RelationalFrame(names, pred)
    basis = []
    for a in range(L.n):
        mask = 0
        for k, (f, _i) in enumerate(pairs):
            if L.leq(f, a):
                mask |= 1 << k
        basis.append(mask)
    return FilterIdealSpace(L, op, pairs, frame, tuple(basis))


def open_sets(frame: RelationalFrame, basis, budget: int = OPENS_BUDGET):
    """All opens of the topology generated by the basis sets.

    Finite space: finite intersections of basis sets, then arbitrary
    unions, plus the empty set and the full space.
    """
    inters = {frame.full_mask}
    work = [int(b) for b in basis]
    for b in work:
        frame._guard(b)
        inters.add(b)
    changed = True
    while changed:
        changed = False
        for a in sorted(inters):
            for b in sorted(inters):
                c = a & b
                if c not in inters:
                    if len(inters) > budget:
                        raise BudgetExhausted("intersection family exceeded budget")
                    inters.add(c)
                    changed = True
    opens = {0}
    work = sorted(inters)
    todo = list(work)
    while todo:
        if len(opens) > budget:
            raise BudgetExhausted("open set family exceeded budget")
        u = todo.pop()
        new = []
        for o in opens:
            c = o | u
            if c not in opens:
                new.append(c)
        for c in new:
            opens.add(c)
            todo.append(c)
    return sorted(opens)


@dataclass(frozen=True)
class FIEmbeddingReport:
    ok: bool
    failures: tuple
    open_count: int
    open_fixpoint_count: int


def verify_fi_embedding(space: FilterIdealSpace, budget: int = OPENS_BUDGET) -> FIEmbeddingReport:
    """hat must be an isomorphism onto exactly the open fixpoints.

    Part one: hat lands in fixpoints, is injective, and carries meet,
    join, and the conditional to intersection, closure-of-union, and the
    frame conditional.  Part two: the image is exactly the set of open
    fixpoints.  Raises EmbeddingNotVerified on failure.
    """
    L, T = space.lattice, space.op.table
    fr, hat = space.frame, space.basis
    failures = []
    for a in range(L.n):
        if fr.closure(hat[a]) != hat[a]:
            failures.append(f"hat({L.names[a]}) is not a fixpoint")
            break
    if len(set(hat)) != L.n:
        failures.append("hat is not injective")
    if not failures:
        for a in range(L.n):
            for b in range(L.n):
                if hat[L.meet(a, b)] != hat[a] & hat[b]:
                    failures.append(f"meet not carried at ({L.names[a]},{L.names[b]})")
                elif hat[L.join(a, b)] != fr.closure(hat[a] | hat[b]):
                    failures.append(f"join not carried at ({L.names[a]},{L.names[b]})")
                elif hat[T[a][b]] != fr.arrow(hat[a], hat[b]):
                    failures.append(
                        f"conditional not carried at ({L.names[a]},{L.names[b]})"
                    )
                if failures:
                    break
            if failures:
                break
    opens = open_sets(fr, hat, budget=budget)
    cofix = [o for o in opens if fr.closure(o) == o]
    if not failures and set(cofix) != set(hat):
        failures.append(
            f"image is {len(set(hat))} sets but the space has {len(cofix)} open fixpoints"
        )
    report = FIEmbeddingReport(not failures, tuple(failures), len(opens), len(cofix))
    if failures:
        raise EmbeddingNotVerified(
            "filter-ideal embedding failed: " + "; ".join(failures), report=report
        )
    return report


# -- the four space conditions -----------------------------------------

@dataclass(frozen=True)
class SpaceConditionsReport:
    separated: tuple        # (holds, witness)  distinct points, distinct (F, I)
    cofix_structure: tuple  # (holds, note)     closure under ∩, join, ->; basis
    pairs_realized: tuple   # (holds, witness)  every consonant pair is some (F(x), I(x))
    relation_matches: tuple # (holds, witness)  x -> y iff I(x) ∩ F(y) = ∅
    cofix: tuple

    @property
    def ok(self):
        return (self.separated[0] and self.cofix_structure[0]
                and self.pairs_realized[0] and self.relation_matches[0])


def check_space_conditions(frame: RelationalFrame, basis,
                           budget: int = OPENS_BUDGET) -> SpaceConditionsReport:
    opens = open_sets(frame, basis, budget=budget)
    cofix = sorted(o for o in opens if frame.closure(o) == o)
    index = {u: k for k, u in enumerate(cofix)}

    # condition: compact opens closed under the three operations and a basis
    structure_note = None
    for u in cofix:
        for v in cofix:
            if u & v not in index:
                structure_note = f"intersection leaves the family ({u:#x},{v:#x})"
                break
            if frame.closure(u | v) not in index:
                structure_note = f"join leaves the family ({u:#x},{v:#x})"
                break
            if frame.arrow(u, v) not in index:
                structure_note = f"conditional leaves the family ({u:#x},{v:#x})"
                break
        if structure_note:
            break
    if structure_note is None:
        for o in opens:
            cover = 0
            for u in cofix:
                if u & ~o == 0:
                    cover |= u
            if cover != o:
                structure_note = f"open {o:#x} is not a union of compact opens"
                break
    cond_structure = (structure_note is None, structure_note)

    fmask = []
    imask = []
    for x in range(frame.m):
        fm = im = 0
        for k, u in enumerate(cofix):
            if u >> x & 1:
                fm |= 1 << k
            if u & frame.successors(x) == 0:
                im |= 1 << k
        fmask.append(fm)
        imask.append(im)

    sep_w = None
    seen = {}
    for x in range(frame.m):
        key = (fmask[x], imask[x])
        if key in seen:
            sep_w = (seen[key], x)
            break
        seen[key] = x
    cond_sep = (sep_w is None, sep_w)

    if cond_structure[0]:
        names = [f"u{k}" for k in range(len(cofix))]
        rows = [
            sum(1 << j for j, v in enumerate(cofix) if u & ~v == 0)
            for u in cofix
        ]
        clat = FiniteLattice(names, rows)
        table = tuple(
            tuple(index[frame.arrow(u, v)] for v in cofix) for u in cofix
        )
        cop = ConditionalOp(clat, table)
        real_w = None
        for f in range(clat.n):
            for i in range(clat.n):
                if not consonant(clat, cop, f, i):
                    continue
                want = (clat.up_mask(f), clat.down_mask(i))
                if not any(
                    (fmask[x], imask[x]) == want for x in range(frame.m)
                ):
                    real_w = (f, i)
                    break
            if real_w:
                break
        cond_real = (real_w is None, real_w)
    else:
        cond_real = (False, "compact opens are not operation-closed")

    rel_w = None
    for x in range(frame.m):
        for y in range(frame.m):
            if frame.related(x, y) != (imask[x] & fmask[y] == 0):
                rel_w = (x, y)
                break
        if rel_w:
            break
    cond_rel = (rel_w is None, rel_w)

    return SpaceConditionsReport(
        cond_sep, cond_structure, cond_real, cond_rel, tuple(cofix)
    )
