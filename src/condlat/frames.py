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

Two roads to that lattice are provided.  ``fixpoints`` enumerates all
2^m subsets and is guarded by a point-count limit.  ``generate_from``
grows the least family containing the closures of given generator sets
and closed under intersection, join, and the conditional; seeded with
all singletons it provably reaches every fixpoint (each closed set is
the join of the closures of its points), which is what the
representation modules lean on for frames too large to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import (
    BudgetExhausted,
    InternalInconsistency,
    TooLarge,
    WidthMismatch,
)
from .lattice import FiniteLattice
from .ops import ConditionalOp

FIXPOINT_ENUM_LIMIT = 20
GENERATE_BUDGET = 4096


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


def _assemble(frame: RelationalFrame, sets) -> FixpointLattice:
    sets = tuple(sorted(sets))
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


def fixpoints(frame: RelationalFrame, limit: int = FIXPOINT_ENUM_LIMIT) -> FixpointLattice:
    """All closure fixpoints by direct enumeration of 2^m subsets."""
    if frame.m > limit:
        raise TooLarge(
            f"{frame.m} points would need 2^{frame.m} subset closures "
            f"(limit {limit}); use generate_from"
        )
    sets = [A for A in range(frame.full_mask + 1) if frame.closure(A) == A]
    return _assemble(frame, sets)


def generate_from(frame: RelationalFrame, generators,
                  budget: int = GENERATE_BUDGET) -> FixpointLattice:
    """Least fixpoint family containing closures of the generators and
    closed under intersection, join, and the conditional.

    The bounds are always included: the closure of the empty set and the
    full set.  With no generators this is the lattice of bounds.
    """
    found = {frame.closure(0), frame.full_mask}
    for g in generators:
        frame._guard(g)
        found.add(frame.closure(g))
    work = sorted(found)
    while work:
        if len(found) > budget:
            raise BudgetExhausted(
                f"generated family exceeded {budget} fixpoints"
            )
        a = work.pop()
        for b in sorted(found):
            for c in (
                a & b,
                frame.closure(a | b),
                frame.arrow(a, b),
                frame.arrow(b, a),
            ):
                if c not in found:
                    found.add(c)
                    work.append(c)
    return _assemble(frame, found)


def singleton_generated(frame: RelationalFrame,
                        budget: int = GENERATE_BUDGET) -> FixpointLattice:
    """The full fixpoint lattice via generators {p}, p a point.

    Every closed set is the join of the closures of its singletons, so
    this agrees with ``fixpoints`` while never enumerating 2^m subsets.
    """
    return generate_from(
        frame, (1 << p for p in range(frame.m)), budget=budget
    )


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
