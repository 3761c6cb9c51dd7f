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

The scalar ``RelationalFrame.arrow`` reads byte tables, after the "Four
Russians" method: the points seeing into a set X are the union of the
pred rows over X, and the points with a predecessor in X the union of
the succ rows over X, so one table per byte position of a mask, holding
that union for each of the 256 byte values, turns either set into about
m/8 table reads.  The tables are built on the first call, once per frame.

The grids of n^2 conditionals (the algebra of a family of sets here,
the embedding checks in ``representation``) run through one kernel,
``RelationalFrame.arrows``: the conditional elementwise over arrays of
masks held as uint64 words, W = ceil(m / 64) words a mask, in bitwise
passes of 8 points each over the rows themselves, not the tables.
``arrow_grid`` confirms every kernel grid with the scalar ``arrow`` at
one fixed cell per row, so two independent computations are compared,
and raises InternalInconsistency on a mismatch.

``first_law_failure`` is the one check of the three set laws: that point
masks carry a lattice's meet to intersection, its join to the closure of
the union and a conditional table to the arrow.  It names the first cell
in row-major order where one fails, tried meet, join, conditional.
``set_algebra`` reads it for a family of frame sets under inclusion with
the family's own conditional table (``fixpoints`` for the closure
fixpoints, ``representation.check_space_conditions`` for the compact
opens), and both embedding routes of ``representation`` for the image of
a lattice; ``fixpoints_with_grids`` hands the pair route the fixpoints'
own grids, reordered, when its image is all fixpoints.  Grids of fewer
than GRID_MIN_INSTANCES cells are computed cell by cell with ``arrow``,
which costs less than the numpy calls there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

import numpy as np

from .errors import InternalInconsistency, TooLarge, WidthMismatch
from .lattice import GRID_MIN_INSTANCES, MAX_ELEMENTS, FiniteLattice, first_violation
from .ops import ConditionalOp


def _masks_of(words) -> list:
    """(k, W) word rows back to k int masks."""
    if words.shape[-1] == 1:
        return words[:, 0].tolist()
    return [int.from_bytes(w.tobytes(), "little")
            for w in np.ascontiguousarray(words, "<u8")]


def _keys(words):
    """Word arrays as byte strings, most significant byte first, so that
    comparing keys compares the masks as integers."""
    X = np.ascontiguousarray(words[..., ::-1], ">u8")
    return X.view(f"V{8 * X.shape[-1]}")[..., 0]


def positions(sets, words):
    """(index, found): where each mask of words sits among the ascending
    masks sets, both as word arrays, and whether it is there at all."""
    keys, want = _keys(sets), _keys(words)
    idx = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return idx, keys[idx] == want


def confirm_cells(arrow, A, B, out, masks=np.ndarray.tolist):
    """Check the kernel grid out = A -> B, whose first two axes are rows
    and columns, against the scalar arrow at the cell (i, cols - 1 - i mod
    cols) of each row i; masks turns an array of cells into int masks."""
    rows, cols = out.shape[:2]
    i = np.arange(rows)
    j = cols - 1 - i % cols
    cells = [masks(np.broadcast_to(X, out.shape)[i, j]) for X in (A, B, out)]
    for a, b, got in zip(*cells):
        if arrow(a, b) != got:
            raise InternalInconsistency(
                f"arrow kernel and scalar arrow differ at ({a:#x},{b:#x})"
            )


def _union(tables, X: int) -> int:
    """The union of the rows over the points of X, read byte by byte from
    RelationalFrame._byte_tables."""
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
        succ = [0] * m
        for x in range(m):
            for y in range(m):
                if pred[x] >> y & 1:
                    succ[y] |= 1 << x
        self.names = names
        self.m = m
        self.full_mask = full
        self.words = -(-m // 64)   # uint64 words per mask in kernel arrays
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

    @cached_property
    def _byte_tables(self):
        """For the pred rows and for the succ rows, one table per byte
        position i of a mask: entry v is the union of the rows 8i + j over
        the bits j of v.  bytes when m <= 8, else lists of int masks."""
        def tables(rows):
            out = []
            for i in range(0, self.m, 8):
                t = [0]
                for r in rows[i:i + 8]:
                    t += [x | r for x in t]
                out.append(bytes(t) if self.m <= 8 else t)
            return tuple(out)
        return tables(self._pred), tables(self._succ)

    def arrow(self, A: int, B: int) -> int:
        """Points whose A-predecessors all see into A ∩ B: the points
        seeing into A ∩ B are the union of the pred rows over A ∩ B, and
        the points with an A-predecessor outside those are the union of
        the succ rows over the rest of A."""
        if (A | B) & ~self.full_mask:   # also true when either is negative
            self._guard(A)
            self._guard(B)
        pred, succ = self._byte_tables
        good = _union(pred, A & B)
        return self.full_mask & ~_union(succ, A & ~good)

    def closure(self, A: int) -> int:
        return self.arrow(self.full_mask, A)

    def to_words(self, masks):
        """Int masks (a mask or nested sequences of them) as a (..., W)
        uint64 word array, least significant word first."""
        arr = np.asarray(masks, dtype=object)
        size = 8 * self.words
        raw = []
        for A in map(int, arr.ravel().tolist()):
            self._guard(A)
            raw.append(A.to_bytes(size, "little"))
        return np.frombuffer(b"".join(raw), "<u8").reshape(arr.shape + (self.words,))

    @cached_property
    def _word_rows(self):
        """pred and succ rows and the full mask as word arrays."""
        return (self.to_words(self._pred), self.to_words(self._succ),
                self.to_words(self.full_mask))

    def _meeting(self, rows, X):
        """Elementwise over the word array X: the mask of points p whose
        row rows[p] meets X, found for 8 points (one byte) a pass."""
        W = self.words
        out = np.zeros(X.shape[:-1] + (8 * W,), np.uint8)
        for byte in range(-(-self.m // 8)):
            chunk = rows[8 * byte:8 * byte + 8]
            hit = (X & chunk.reshape((len(chunk),) + (1,) * (X.ndim - 1) + (W,))).any(-1)
            out[..., byte] = np.packbits(hit, axis=0, bitorder="little")[0]
        return out.view("<u8")

    def arrows(self, A, B):
        """arrow elementwise over word arrays A and B of shape (..., W) that
        broadcast: the points seeing into A ∩ B, then the points none of
        whose A-predecessors is outside those, one pass per 8 points each."""
        A, B = np.asarray(A), np.asarray(B)
        pred, succ, full = self._word_rows
        for X in (A, B):
            if X.dtype != np.uint64 or X.shape[-1:] != (self.words,):
                raise WidthMismatch(f"kernel masks must be uint64 words, {self.words} a mask")
            if (X & ~full).any():
                raise WidthMismatch(f"a mask addresses points outside this {self.m}-point frame")
        good = self._meeting(succ, A & B)
        return full & ~self._meeting(pred, A & ~good)

    def arrow_grid(self, A, B):
        """arrows over a grid whose first two axes are rows and columns,
        confirmed by the scalar arrow at one cell per row."""
        out = self.arrows(A, B)
        confirm_cells(self.arrow, A, B, out, _masks_of)
        return out

    def closure_grid(self, A):
        return self.arrow_grid(self._word_rows[2], A)

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
    """(S, C, A) for the point masks H: C[a][b] = closure(H[a] | H[b]) and
    A[a][b] = H[a] -> H[b].  Below GRID_MIN_INSTANCES cells S is H and C, A
    are int lists made cell by cell; else all three are kernel word arrays."""
    if len(H) ** 2 < GRID_MIN_INSTANCES:
        return (H, [[frame.closure(s | t) for t in H] for s in H],
                [[frame.arrow(s, t) for t in H] for s in H])
    S = frame.to_words(H)
    return (S, frame.closure_grid(S[:, None] | S[None, :]),
            frame.arrow_grid(S[:, None], S[None, :]))


def first_law_failure(frame: RelationalFrame, H, lattice: FiniteLattice, T, grids=None):
    """(law, a, b) at the first cell in row-major order where the point
    masks H fail to carry lattice's meet to intersection ("meet"), its join
    to the closure of the union ("join") or the index table T to the arrow
    ("conditional"; T holds -1 where the arrow is outside H, a failure),
    tried in that order; or None.  grids are _set_grids(frame, H), made
    here when not given; a cell flagged on kernel grids is confirmed with
    the scalar closure and arrow."""
    S, C, A = grids or _set_grids(frame, H)
    small, M, J = len(H) ** 2 < GRID_MIN_INSTANCES, lattice.meet_table, lattice.join_table

    def law(v):
        a, b = v
        s, t = H[a], H[b]
        if H[M[a][b]] != s & t:
            return "meet"
        if H[J[a][b]] != (C[a][b] if small else frame.closure(s | t)):
            return "join"
        r, k = A[a][b] if small else frame.arrow(s, t), T[a][b]
        # a -1 that the kernel put in T is confirmed by the arrow leaving H
        if r not in H if k < 0 else H[k] != r:
            return "conditional"
        return None

    def block(a, b):
        # a -1 in T reads S[-1], which is not the arrow: that is outside H
        return ((S[lattice.meet_array[a, b]] != S[a] & S[b])
                | (S[lattice.join_array[a, b]] != C[a, b])
                | (S[np.asarray(T)[a, b]] != A[a, b])).any(-1)

    bad = first_violation(len(H), 2, law, block)
    return bad and (law(bad), *bad)


def set_algebra(frame: RelationalFrame, sets):
    """The algebra of a family of frame sets: (lattice, table, failure, grids).

    The lattice is sets (ascending masks) ordered by inclusion, each
    named by set_label; table[i][j] is the index of sets[i] -> sets[j] in
    sets, or -1 where it is not there; failure is first_law_failure of
    the two, so a -1 in the table is the conditional leaving the family;
    grids are the _set_grids(frame, sets) that both read.
    """
    lat = FiniteLattice([set_label(frame, s) for s in sets],
                        [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets])
    S, _, A = grids = _set_grids(frame, sets)
    if isinstance(A, list):
        index = {s: i for i, s in enumerate(sets)}
        table = T = [[index.get(r, -1) for r in row] for row in A]
    else:
        idx, found = positions(S, A)
        T = np.where(found, idx, -1)
        table = T.tolist()
    return lat, table, first_law_failure(frame, sets, lat, T, grids), grids


def fixpoints(frame: RelationalFrame) -> FixpointLattice:
    """All closure fixpoints of the frame, with their lattice and conditional.

    Raises TooLarge, after listing at most MAX_ELEMENTS + 1 of them, when
    there are more fixpoints than a lattice may have elements.
    """
    return _fixpoint_algebra(frame)[0]


def fixpoints_with_grids(frame: RelationalFrame, H):
    """fixpoints(frame) and, when the point masks H list its sets in some
    order, the _set_grids(frame, H) that first_law_failure reads, taken
    from the fixpoints' own law check by reordering; else None."""
    fl, (S, C, A) = _fixpoint_algebra(frame)
    index = {s: i for i, s in enumerate(fl.sets)}
    order = [index.get(h, -1) for h in H]
    if sorted(order) != list(range(len(fl.sets))):
        return fl, None
    if isinstance(C, list):
        return fl, ([S[i] for i in order], [[C[i][j] for j in order] for i in order],
                    [[A[i][j] for j in order] for i in order])
    cells = np.ix_(order, order)
    return fl, (S[order], C[cells], A[cells])


def _fixpoint_algebra(frame: RelationalFrame):
    """(fixpoints(frame), the grids of its law check)."""
    sets = tuple(closed_sets(frame.m, frame.closure, MAX_ELEMENTS))
    if len(sets) > MAX_ELEMENTS:
        raise TooLarge(
            f"the {frame.m}-point frame has more than {MAX_ELEMENTS} fixpoints"
        )
    lat, table, failure, grids = set_algebra(frame, sets)
    if failure:
        law, i, j = failure
        a, b = lat.names[i], lat.names[j]
        raise InternalInconsistency({
            "meet": f"fixpoint meet is not intersection at ({a},{b})",
            "join": f"fixpoint join is not closure of union at ({a},{b})",
            "conditional": f"conditional of fixpoints left the family: {a} -> {b}",
        }[law])
    return FixpointLattice(frame, sets, lat, ConditionalOp(lat, tuple(map(tuple, table)))), grids


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
