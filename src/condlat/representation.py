"""Representing an algebra with a conditional inside a frame's fixpoints.

Two constructions, both starting from a lattice L with a table passing
the five core axioms.

Pair frame: points are the pairs (x, x -> y); a point (a, b) accesses
(c, d) exactly when c is not below b.  The candidate embedding sends a
to the set of points whose first coordinate is below a.  For finite L
the theorem makes this map an isomorphism onto the whole fixpoint
lattice, so it alone decides the route: a map that fails is a failed
embedding, whatever other isomorphism may exist.

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

Opens are never listed: a set is open exactly when it contains N(x), the
intersection of the basis sets holding x, for each of its points x, so
the open fixpoints are the closed sets of the frame closure alternated
with the up-hull X |-> union of N(x), x in X, which reads byte tables of
the N(x) the way ``RelationalFrame.arrow`` reads them of the frame rows.

Both routes decide their candidate map with one embedding check,
``_embedding_failures``, against their family of fixpoints listed in
ascending order up to L.n + 1 sets: all closure fixpoints for the pair
route, the open fixpoints for the filter-ideal route.  More sets than
elements name one outside the image; else hat must land in the family,
be injective and pass the one set-law check of ``frames``,
``first_law_failure``, on the lattice's own tables.  The structure
condition of ``check_space_conditions`` is the same set-law check
through ``frames.set_algebra`` on the compact opens.  That lattice and
table give the consonant pairs the pairs-realized condition looks up;
``build_fi_space`` lists its points with the same ``_consonant_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from operator import or_

import numpy as np

from .errors import EmbeddingNotVerified, InternalInconsistency, TooLarge
from .frames import (RelationalFrame, _union, byte_tables, closed_sets, first_law_failure,
                     set_algebra, set_label)
from .lattice import MAX_ELEMENTS, FiniteLattice, _bits, first_violation
from .ops import ConditionalOp, require_own_lattice, require_preconditional


# -- pair frame --------------------------------------------------------

def _pair_space(L: FiniteLattice, pairs, brackets: str):
    """The frame on (x, y) pairs in which (x, y) sees (x', y') iff not
    x' <= y, and hat(a) = the point mask of the pairs with x <= a, for
    each a in L.  brackets wraps the point names, as in "()" or "[]"."""
    names = [f"{brackets[0]}{L.names[x]},{L.names[y]}{brackets[1]}" for x, y in pairs]
    # by_x[e] and by_y[e]: the point masks of the pairs with x = e and y = e
    by_x, by_y = [0] * L.n, [0] * L.n
    for i, (x, y) in enumerate(pairs):
        by_x[x] |= 1 << i
        by_y[y] |= 1 << i
    full = (1 << len(pairs)) - 1
    # a predecessor row depends on the first coordinate alone: the pairs
    # whose second coordinate is not above it
    rows = {x: full & ~reduce(or_, (by_y[y] for y in _bits(L.up_mask(x))), 0)
            for x in {x for x, _ in pairs}}
    pred = [rows[x] for x, _ in pairs]
    hat = tuple(reduce(or_, (by_x[x] for x in _bits(L.down_mask(a))), 0) for a in range(L.n))
    return RelationalFrame(names, pred), hat


@dataclass(frozen=True)
class PairFrame:
    lattice: FiniteLattice
    op: ConditionalOp
    points: tuple          # (x, v) pairs, v some x -> y, sorted
    frame: RelationalFrame
    hat: tuple             # hat[a] = point mask of the pairs with x <= a


def build_pair_frame(lattice: FiniteLattice, op: ConditionalOp) -> PairFrame:
    require_own_lattice(lattice, op)
    require_preconditional(op)
    L, T = lattice, op.table
    points = tuple(sorted({(x, T[x][y]) for x in range(L.n) for y in range(L.n)}))
    return PairFrame(L, op, points, *_pair_space(L, points, "()"))


@dataclass(frozen=True)
class PairEmbeddingReport:
    ok: bool
    failures: tuple
    fixpoint_count: int    # counted up to L.n + 1, which means "more than the image"
    mapping: tuple | None  # element -> index among the fixpoints, ascending

    @property
    def fallback_used(self) -> bool:
        """Always False: the route has no fallback.

        Kept read-only for perfbench's ``representation.fallbacks`` meter
        alone; it goes when ROADMAP item 2 drops that meter.
        """
        return False


def verify_pair_embedding(pf: PairFrame) -> PairEmbeddingReport:
    """Verify the candidate map a |-> hat(a) is an isomorphism onto all fixpoints.

    The map alone decides: on any failure this raises EmbeddingNotVerified,
    whose report carries the failures.  The fixpoints are listed up to
    L.n + 1 of them, so a frame with any number of fixpoints is decided.
    """
    L, fr, hat = pf.lattice, pf.frame, pf.hat
    fixed = closed_sets(fr.m, fr.closure, L.n)
    failures = _embedding_failures(L, pf.op.table, fr, hat, fixed)
    if failures:
        raise EmbeddingNotVerified(
            "pair-frame embedding failed: " + "; ".join(failures),
            report=PairEmbeddingReport(False, tuple(failures), len(fixed), None),
        )
    index = {s: i for i, s in enumerate(fixed)}
    return PairEmbeddingReport(True, (), len(fixed), tuple(index[h] for h in hat))


# -- filter-ideal space ------------------------------------------------

def _dissonant(L: FiniteLattice, T, i: int) -> int:
    """The mask of the a with some b where a ∧ b <= i but not (a -> b) <= i."""
    down = L.down_mask(i)
    return sum(1 << a for a in range(L.n)
               if any(down >> L.meet(a, b) & 1 and not down >> T[a][b] & 1
                      for b in range(L.n)))


def _consonant_pairs(L: FiniteLattice, op: ConditionalOp) -> tuple:
    """Every consonant (f, i) pair, sorted."""
    bad = [_dissonant(L, op.table, i) for i in range(L.n)]
    return tuple((f, i) for f in range(L.n) for i in range(L.n)
                 if L.up_mask(f) & bad[i] == 0)


@dataclass(frozen=True)
class FilterIdealSpace:
    lattice: FiniteLattice
    op: ConditionalOp
    pairs: tuple           # (f, i) generator pairs, sorted
    frame: RelationalFrame
    basis: tuple           # basis[a] = point mask of hat(a)


def build_fi_space(lattice: FiniteLattice, op: ConditionalOp) -> FilterIdealSpace:
    require_own_lattice(lattice, op)
    require_preconditional(op)
    L, T = lattice, op.table
    pairs = _consonant_pairs(L, op)
    # sanity: the pairs the theory promises must be present
    promised = {(x, T[x][y]) for x in range(L.n) for y in range(L.n)}
    promised.update((L.top, b) for b in range(L.n))
    missing = promised.difference(pairs)
    if missing:
        raise InternalInconsistency(
            f"promised consonant pairs missing: {sorted(missing)[:4]}"
        )
    # (F, I) -> (F', I')  iff  I ∩ F' = ∅  iff  not f' <= i
    return FilterIdealSpace(L, op, pairs, *_pair_space(L, pairs, "[]"))


def _neighbourhoods(frame: RelationalFrame, basis) -> list:
    """N(x) for each point x: the intersection of the basis sets holding x."""
    nbhd = [frame.full_mask] * frame.m
    for u in basis:
        frame._guard(u)
        for x in range(frame.m):
            if u >> x & 1:
                nbhd[x] &= u
    return nbhd


def _open_fixpoints(frame: RelationalFrame, nbhd, limit: int) -> list:
    """Open fixpoints in ascending order, at most limit + 1 of them."""
    hull = byte_tables(nbhd)

    def close(X):
        # alternate the two closures until both fix the set
        while True:
            X = _union(hull, X)
            C = frame.closure(X)
            if C == X:
                return X
            X = C

    return closed_sets(frame.m, close, limit)


@dataclass(frozen=True)
class FIEmbeddingReport:
    ok: bool
    failures: tuple
    open_fixpoint_count: int  # counted up to L.n + 1, which means "more than the image"
    space: FilterIdealSpace = field(repr=False, compare=False)

    @property
    def open_count(self) -> int:
        """All opens of the space, listed on demand; no verdict needs them.

        The listing has no bound: the spaces of 33-55 element algebras
        that verify_fi_embedding decides may have too many opens to list.
        """
        nbhd = _neighbourhoods(self.space.frame, self.space.basis)
        return len(closed_sets(self.space.frame.m, partial(_union, byte_tables(nbhd)), None))


def _embedding_failures(L, T, frame, hat, family):
    """The one embedding check: is a |-> hat[a] an isomorphism onto family,
    a family of fixpoints listed in ascending order up to L.n + 1 sets?

    More than L.n sets means one of them lies outside the image.  Else the
    family is complete, and hat must land in it, be injective, and carry
    meet, join and the table T to intersection, closure-of-union and
    frame.arrow (first_law_failure).  Returns the failures, worded alike
    on both routes, or [] when hat is an isomorphism onto family.
    """
    if len(family) > L.n:
        extra = next(u for u in family if u not in hat)
        return [f"image is {L.n} sets but the fixpoint {set_label(frame, extra)} lies outside it"]
    failures = []
    members = set(family)
    off = next((a for a in range(L.n) if hat[a] not in members), None)
    if off is not None:
        failures.append(f"hat({L.names[off]}) is not a fixpoint")
    if len(set(hat)) != L.n:
        failures.append("hat is not injective")
    if failures:
        return failures
    bad = first_law_failure(frame, hat, L, T)
    if bad is None:
        return []
    law, a, b = bad
    return [f"{law} not carried at ({L.names[a]},{L.names[b]})"]


def verify_fi_embedding(space: FilterIdealSpace) -> FIEmbeddingReport:
    """hat must be an isomorphism onto exactly the open fixpoints.

    The open fixpoints are listed up to L.n + 1 of them and handed to the
    embedding check with hat.  Raises EmbeddingNotVerified on failure.
    """
    L, fr, hat = space.lattice, space.frame, space.basis
    cofix = _open_fixpoints(fr, _neighbourhoods(fr, hat), L.n)
    failures = _embedding_failures(L, space.op.table, fr, hat, cofix)
    report = FIEmbeddingReport(not failures, tuple(failures), len(cofix), space)
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


def check_space_conditions(frame: RelationalFrame, basis) -> SpaceConditionsReport:
    """The four conditions, with the compact opens taken as the open
    fixpoints; raises TooLarge when there are more than MAX_ELEMENTS."""
    nbhd = _neighbourhoods(frame, basis)
    cofix = _open_fixpoints(frame, nbhd, MAX_ELEMENTS)
    if len(cofix) > MAX_ELEMENTS:
        raise TooLarge(f"the space has more than {MAX_ELEMENTS} compact opens")

    # condition: compact opens closed under the three operations and a basis
    clat, table, failure = set_algebra(frame, cofix)
    structure_note = None
    if failure:
        law, i, j = failure
        structure_note = (f"{'intersection' if law == 'meet' else law} leaves the family "
                          f"({cofix[i]:#x},{cofix[j]:#x})")
    else:
        # every open is the union of the N(x) inside it, and the least open
        # that is no union of compact opens contains, so is, a failing N(x)
        o = next((o for o in sorted(nbhd)
                  if o != reduce(or_, (u for u in cofix if u & ~o == 0), 0)), None)
        if o is not None:
            structure_note = f"open {o:#x} is not a union of compact opens"
    cond_structure = (structure_note is None, structure_note)

    # F(x) and I(x) as masks over cofix: the opens that hold x, and those
    # that hold no successor of x
    fmask = [sum(1 << k for k, u in enumerate(cofix) if u >> x & 1) for x in range(frame.m)]
    imask = [sum(1 << k for k, u in enumerate(cofix) if u & frame.successors(x) == 0)
             for x in range(frame.m)]

    sep_w = None
    seen = {}
    for x in range(frame.m):
        key = (fmask[x], imask[x])
        if key in seen:
            sep_w = (seen[key], x)
            break
        seen[key] = x
    cond_sep = (sep_w is None, sep_w)

    # the consonant pairs need only the operations; an open that is no
    # union of compact opens leaves them defined
    if not failure:
        realized = set(zip(fmask, imask))
        real_w = next(((f, i) for f, i in _consonant_pairs(clat, ConditionalOp(clat, table))
                       if (clat.up_mask(f), clat.down_mask(i)) not in realized), None)
        cond_real = (real_w is None, real_w)
    else:
        cond_real = (False, "compact opens are not operation-closed")

    # condition: x -> y iff I(x) ∩ F(y) = ∅; the numpy form reads x -> y
    # as bit x of the predecessor row of y
    F, I = np.array(fmask, np.uint64), np.array(imask, np.uint64)
    size = -(-frame.m // 8)
    P = b"".join(frame.predecessors(y).to_bytes(size, "little") for y in range(frame.m))
    R = np.unpackbits(np.frombuffer(P, np.uint8).reshape(frame.m, size), axis=-1,
                      count=frame.m, bitorder="little").astype(bool)

    def mismatch(v):
        x, y = v
        return frame.related(x, y) != (imask[x] & fmask[y] == 0)

    rel_w = first_violation(frame.m, 2, mismatch, lambda x, y: R[y, x] != (I[x] & F[y] == 0))
    cond_rel = (rel_w is None, rel_w)

    return SpaceConditionsReport(
        cond_sep, cond_structure, cond_real, cond_rel, tuple(cofix)
    )
