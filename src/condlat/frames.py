"""Relational frames, the closure operator, and fixpoint lattices.

A frame is a set of points with one binary accessibility relation,
written here u -> v for "u is accessed below v" (method ``related``).
Subsets of points are int bitmasks, as everywhere in the package.

The conditional of two point sets A, B collects the points x such that
every predecessor of x inside A has a successor inside A ∩ B.  Closure
is the conditional with full antecedent; its fixpoints, ordered by
inclusion, always form a bounded lattice whose meet is intersection and
whose join is the closure of the union, and the conditional restricted
to fixpoints lands in the fixpoints again.

Every family of sets this package builds from a frame (the closure
fixpoints here, the open fixpoints of a filter-ideal space in
``representation``) is closed under intersection, so it is the family
of closed sets of one closure operator.  ``closed_sets`` lists such a
family with Ganter's NextClosure: in ascending integer order, with at
most m closure calls per set (after one per point), and never more sets
than asked for.

``RelationalFrame.arrow`` is the one frame conditional, on int masks.
It reads byte tables, after the "Four Russians" method: the points
seeing into a set X are the union of the pred rows over X, and the
points with a predecessor in X the union of the succ rows over X, so
one table per byte position of a mask, holding that union for each of
the 256 byte values (``byte_tables``), turns either set into about m/8
table reads (``_union``).  A frame of at most 8 points has one table
per step, so its arrow is two reads with no loop (``_one_table``).  The
tables are built on the first call, once per frame.  ``representation``
reads the same tables for its up-hull.

``first_law_failure`` is the one check of the three set laws: that point
masks carry a lattice's meet to intersection, its join to the closure of
the union and a conditional table to the arrow.  It names the first cell
in row-major order where one fails, tried meet, join, conditional,
comparing whole rows first and walking only the first row that differs.
It reads the grids of ``_set_grids``: the n^2 arrows, and the closures
of the unions, each distinct union closed once.  ``set_algebra`` reads
it for a family of frame sets under inclusion with the family's own
conditional table (``fixpoints`` for the closure fixpoints,
``representation.check_space_conditions`` for the compact opens), and
the one embedding check of ``representation``, on either route, for the
image of a lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

from .errors import InternalInconsistency, TooLarge, WidthMismatch
from .lattice import MAX_ELEMENTS, FiniteLattice, index_pairs
from .ops import ConditionalOp


def byte_tables(rows):
    """One table per byte position i of a mask over the points of rows:
    entry v is the union of the rows 8i + j over the bits j of v.  bytes
    when there are at most 8 rows, else lists of int masks."""
    out = []
    for i in range(0, len(rows), 8):
        t = [0]
        for r in rows[i:i + 8]:
            t += [x | r for x in t]
        out.append(bytes(t) if len(rows) <= 8 else t)
    return tuple(out)


def _union(tables, X: int) -> int:
    """The union of the rows over the points of X, read byte by byte from
    their byte_tables."""
    out = 0
    for t in tables:
        if not X:
            break
        out |= t[X & 255]
        X >>= 8
    return out


class RelationalFrame:
    """Points 0..m-1 with an accessibility relation held as bitmask rows."""

    def __init__(self, names, pred_rows):
        names = tuple(str(x) for x in names)
        m = len(names)
        if m == 0:
            raise WidthMismatch("a frame needs at least one point")
        if len(set(names)) != m:
            raise WidthMismatch("duplicate point names")
        full = (1 << m) - 1
        pred = [int(r) for r in pred_rows]
        if len(pred) != m:
            raise WidthMismatch("relation row count does not match point count")
        for r in pred:
            if r & ~full:
                raise WidthMismatch("relation row references unknown points")
        # succ is pred transposed: read the columns of the rows' bit
        # strings, last row first, so column m-1-y spells succ[y] in binary
        cols = zip(*(format(r, f"0{m}b") for r in reversed(pred)))
        succ = [int("".join(c), 2) for c in cols][::-1]
        self.names = names
        self.m = m
        self.full_mask = full
        self._pred = tuple(pred)   # _pred[x] = {y : y -> x}
        self._succ = tuple(succ)   # _succ[y] = {x : y -> x}
        self._index = {n: i for i, n in enumerate(names)}

    @classmethod
    def from_edges(cls, names, edges, reflexive=False):
        """edges are (u, v) pairs meaning u -> v; indices or names."""
        names = tuple(str(x) for x in names)
        idx = {n: i for i, n in enumerate(names)}
        pred = [0] * len(names)
        if reflexive:
            for i in range(len(names)):
                pred[i] |= 1 << i
        edges = [tuple(idx.get(x, x) for x in e) for e in edges]
        for u, v in index_pairs(edges, len(names), WidthMismatch, "points"):
            pred[v] |= 1 << u
        return cls(names, pred)

    def related(self, u: int, v: int) -> bool:
        """u -> v."""
        return bool(self._pred[v] >> u & 1)

    def predecessors(self, x: int) -> int:
        return self._pred[x]

    def successors(self, y: int) -> int:
        return self._succ[y]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown point name {name!r}") from None

    def _guard(self, A: int):
        if A < 0 or A & ~self.full_mask:
            raise WidthMismatch(
                f"mask {A:#x} addresses points outside this {self.m}-point frame"
            )

    @cached_property
    def _byte_tables(self):
        """byte_tables of the pred rows and of the succ rows."""
        return byte_tables(self._pred), byte_tables(self._succ)

    @cached_property
    def _one_table(self):
        """(pred table, succ table) of a frame of at most 8 points, whose
        masks are one byte, so each union is one read; None when wider."""
        pred, succ = self._byte_tables
        return (pred[0], succ[0]) if self.m <= 8 else None

    def arrow(self, A: int, B: int) -> int:
        """Points whose A-predecessors all see into A ∩ B: the points
        seeing into A ∩ B are the union of the pred rows over A ∩ B, and
        the points with an A-predecessor outside those are the union of
        the succ rows over the rest of A."""
        full = self.full_mask
        if (A | B) & ~full:   # also true when either is negative
            self._guard(A)
            self._guard(B)
        one = self._one_table
        if one is not None:
            return full & ~one[1][A & ~one[0][A & B]]
        pred, succ = self._byte_tables
        return full & ~_union(succ, A & ~_union(pred, A & B))

    def closure(self, A: int) -> int:
        return self.arrow(self.full_mask, A)

    def edges(self):
        return [
            (u, v)
            for v in range(self.m)
            for u in range(self.m)
            if self._pred[v] >> u & 1
        ]

    def __repr__(self):
        return f"RelationalFrame({self.m} points: {' '.join(self.names)})"


def set_label(frame, mask: int) -> str:
    """The members of a point mask by name, on any frame with `names`."""
    members = [name for i, name in enumerate(frame.names) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


@dataclass(frozen=True)
class FixpointLattice:
    """The closure fixpoints of a frame as a lattice plus its conditional."""

    frame: RelationalFrame
    sets: tuple           # fixpoint bitmasks, ascending as integers
    lattice: FiniteLattice
    op: ConditionalOp


def closed_sets(m: int, close, limit: int | None) -> list:
    """The sets of points 0..m-1 fixed by the closure operator close.

    Ganter's NextClosure: from a closed set A, the next one in ascending
    integer order is close(A ∩ above(p) ∪ {p}) for the lowest point p
    not in A whose closure adds no point above p.  close is monotone, so
    a point whose own closure already adds a point above p outside A is
    passed over without a call.  Stops after limit + 1 sets (never, when
    limit is None), so a caller can tell "more than limit" without
    listing the rest.
    """
    full = (1 << m) - 1
    own = [close(1 << p) for p in range(m)]
    A = close(0)
    out = [A]
    while A != full and (limit is None or len(out) <= limit):
        for p in range(m):
            bit = 1 << p
            above = full & -(bit << 1)
            if A & bit or own[p] & above & ~A:
                continue
            B = close(A & above | bit)
            if (B ^ A) & above == 0:
                A = B
                break
        out.append(A)
    return out


def _set_grids(frame: RelationalFrame, H):
    """(C, A) for the point masks H, as int lists: C[a][b] =
    closure(H[a] | H[b]) and A[a][b] = H[a] -> H[b].  Each distinct union
    is closed once."""
    close, arrow = frame.closure, frame.arrow
    closed = {u: close(u) for u in {s | t for s in H for t in H}}
    return [[closed[s | t] for t in H] for s in H], [[arrow(s, t) for t in H] for s in H]


def first_law_failure(frame: RelationalFrame, H, lattice: FiniteLattice, T, grids=None):
    """(law, a, b) at the first cell in row-major order where the point
    masks H fail to carry lattice's meet to intersection ("meet"), its join
    to the closure of the union ("join") or the index table T to the arrow
    ("conditional"; T holds -1 where the arrow is outside H, a failure),
    tried in that order; or None.  grids are _set_grids(frame, H), made
    here when not given.  Whole rows are compared first, and only the
    first row that differs is walked cell by cell."""
    C, A = grids or _set_grids(frame, H)
    M, J = lattice.meet_table, lattice.join_table

    def law(a, b):
        r, k = A[a][b], T[a][b]
        if H[M[a][b]] != H[a] & H[b]:
            return "meet"
        if H[J[a][b]] != C[a][b]:
            return "join"
        if r not in H if k < 0 else H[k] != r:
            return "conditional"
        return None

    for a, s in enumerate(H):
        # a -1 in T reads H[-1], which is not the arrow: that is outside H
        if ([H[i] for i in M[a]] != [s & t for t in H] or [H[i] for i in J[a]] != C[a]
                or [H[i] for i in T[a]] != A[a]):
            for b in range(len(H)):
                bad = law(a, b)
                if bad:
                    return bad, a, b
    return None


def set_algebra(frame: RelationalFrame, sets):
    """The algebra of a family of frame sets: (lattice, table, failure).

    The lattice is sets (ascending masks) ordered by inclusion, each
    named by set_label; table[i][j] is the index of sets[i] -> sets[j] in
    sets, or -1 where it is not there; failure is first_law_failure of
    the two, so a -1 in the table is the conditional leaving the family.
    """
    lat = FiniteLattice([set_label(frame, s) for s in sets],
                        [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets])
    grids = _set_grids(frame, sets)
    index = {s: i for i, s in enumerate(sets)}
    table = [[index.get(r, -1) for r in row] for row in grids[1]]
    return lat, table, first_law_failure(frame, sets, lat, table, grids)


def fixpoints(frame: RelationalFrame) -> FixpointLattice:
    """All closure fixpoints of the frame, with their lattice and conditional.

    Raises TooLarge, after listing at most MAX_ELEMENTS + 1 of them, when
    there are more fixpoints than a lattice may have elements.
    """
    sets = tuple(closed_sets(frame.m, frame.closure, MAX_ELEMENTS))
    if len(sets) > MAX_ELEMENTS:
        raise TooLarge(
            f"the {frame.m}-point frame has more than {MAX_ELEMENTS} fixpoints"
        )
    lat, table, failure = set_algebra(frame, sets)
    if failure:
        law, i, j = failure
        a, b = lat.names[i], lat.names[j]
        raise InternalInconsistency({
            "meet": f"fixpoint meet is not intersection at ({a},{b})",
            "join": f"fixpoint join is not closure of union at ({a},{b})",
            "conditional": f"conditional of fixpoints left the family: {a} -> {b}",
        }[law])
    return FixpointLattice(frame, sets, lat, ConditionalOp(lat, tuple(map(tuple, table))))


def random_frame(rng: Random, m: int, density: float = 0.5) -> RelationalFrame:
    """A frame with each of the m^2 edge slots filled with probability density."""
    pred = []
    for _ in range(m):
        row = 0
        for y in range(m):
            if rng.random() < density:
                row |= 1 << y
        pred.append(row)
    return RelationalFrame([f"p{i}" for i in range(m)], pred)
