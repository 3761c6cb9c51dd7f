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
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import InternalInconsistency, TooLarge, WidthMismatch
from .lattice import MAX_ELEMENTS, FiniteLattice
from .ops import ConditionalOp


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
        succ = [0] * m
        for x in range(m):
            for y in range(m):
                if pred[x] >> y & 1:
                    succ[y] |= 1 << x
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
        for u, v in edges:
            ui = u if isinstance(u, int) else idx[u]
            vi = v if isinstance(v, int) else idx[v]
            pred[vi] |= 1 << ui
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

    def arrow(self, A: int, B: int) -> int:
        """Points whose A-predecessors all see into A ∩ B."""
        self._guard(A)
        self._guard(B)
        AB = A & B
        good = 0
        for y in range(self.m):
            if self._succ[y] & AB:
                good |= 1 << y
        out = 0
        for x in range(self.m):
            if self._pred[x] & A & ~good == 0:
                out |= 1 << x
        return out

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


def set_label(frame: RelationalFrame, mask: int) -> str:
    members = [frame.names[i] for i in range(frame.m) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


@dataclass(frozen=True)
class FixpointLattice:
    """The closure fixpoints of a frame as a lattice plus its conditional."""

    frame: RelationalFrame
    sets: tuple           # fixpoint bitmasks, ascending as integers
    lattice: FiniteLattice
    op: ConditionalOp

    def index_of(self, mask: int) -> int:
        try:
            return self.sets.index(mask)
        except ValueError:
            raise InternalInconsistency(
                f"{mask:#x} is not one of the collected fixpoints"
            ) from None


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
    index = {s: i for i, s in enumerate(sets)}
    names = [set_label(frame, s) for s in sets]
    rows = []
    for s in sets:
        row = 0
        for t, j in index.items():
            if s & ~t == 0:
                row |= 1 << j
        rows.append(row)
    lat = FiniteLattice(names, rows)
    # the lattice operations must be literal: meet is intersection, join
    # is the closure of the union
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            if sets[lat.meet(i, j)] != s & t:
                raise InternalInconsistency("fixpoint meet is not intersection")
            if sets[lat.join(i, j)] != frame.closure(s | t):
                raise InternalInconsistency("fixpoint join is not closure of union")
    table = []
    for s in sets:
        row = []
        for t in sets:
            r = frame.arrow(s, t)
            k = index.get(r)
            if k is None:
                raise InternalInconsistency(
                    f"conditional of fixpoints left the family: "
                    f"{set_label(frame, s)} -> {set_label(frame, t)}"
                )
            row.append(k)
        table.append(tuple(row))
    op = ConditionalOp(lat, tuple(table))
    return FixpointLattice(frame, sets, lat, op)


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
