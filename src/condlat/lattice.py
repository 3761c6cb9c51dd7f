"""Finite bounded lattices over dense integer indices.

Conventions used by the whole package:

* The elements of an n-element lattice are the integers 0..n-1.  Names
  are display labels only; every computation is index based.
* A subset of elements is a Python int bitmask: bit e set iff element e
  belongs to the subset.  The same convention is used for frame points.
* ``up_mask(a)`` is the bitmask of x with a <= x, ``down_mask(a)`` the
  bitmask of x <= a; both include a itself.
* A law over an index grid range(n)**arity is decided by
  ``first_violation``: the lexicographic scan for small grids, numpy
  over blocks of antecedent rows for larger ones (blocks that grow, so
  an early violation stays cheap), same first witness.
  A law is written once over tables read ``X[a][b]``: the scan passes
  the tuple tables, the numpy route the arrays wrapped in ``Rows``.

Construction is strict.  ``FiniteLattice`` refuses anything that is not
a partial order with a global bottom, a global top, and all binary meets
and joins; each rejection raises its own exception type with a witness
in the message.  A one-element lattice (bottom == top) is accepted.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import product

import numpy as np

from .errors import (
    InternalInconsistency,
    MissingBound,
    NotALattice,
    NotAPartialOrder,
    TooLarge,
)

MAX_ELEMENTS = 64  # one machine word of bitmask; raise deliberately if ever needed

# Index grids of at least this many tuples are searched with numpy; below
# it the per-call overhead of numpy costs more than the Python scan.
GRID_MIN_INSTANCES = 64
# Cells in the first numpy block: one antecedent row of a ternary law at
# n = 64, the whole grid at n <= 16.  Later blocks double their rows while
# they stay within _GROWN_CELLS, so a grid is walked in blocks of about
# BLOCK_CELLS, then 2, 4, ... times that.
BLOCK_CELLS = 4096
_GROWN_CELLS = 65536


def _bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def first_true_cell(bad: np.ndarray):
    """The index tuple, as ints, of the first nonzero cell of bad in C order, or None."""
    hit = np.flatnonzero(bad)
    return tuple(map(int, np.unravel_index(hit[0], bad.shape))) if hit.size else None


def grid_first_violation(n: int, arity: int, block):
    """Lexicographically first tuple of range(n)**arity flagged by block.

    block(a, *rest) gets the antecedents a as an ascending index array of
    shape (k, 1, ..., 1) and the remaining coordinates as broadcastable
    aranges, and returns a boolean array that broadcasts to
    (k, n, ..., n), true where the law fails.  Antecedents are walked in
    ascending blocks, the first of about BLOCK_CELLS cells and each later
    one with twice the rows of the last while it stays within _GROWN_CELLS,
    stopping at the first block with a violation.  So a violation near the
    start costs one small block, no n**arity array is built, and the first
    nonzero of a C-order block is the first violation overall.
    """
    axes = [np.arange(n).reshape((1,) * i + (n,) + (1,) * (arity - 1 - i))
            for i in range(arity)]
    row_cells = n ** (arity - 1)
    rows, start = max(1, BLOCK_CELLS // row_cells), 0
    while start < n:
        a = axes[0][start:start + rows]
        bad = np.broadcast_to(block(a, *axes[1:]), (len(a),) + (n,) * (arity - 1))
        first = first_true_cell(bad)
        if first is not None:
            return (start + first[0],) + first[1:]
        start += rows
        rows = max(rows, min(2 * rows, _GROWN_CELLS // row_cells))
    return None


class Rows:
    """A numpy table read like a tuple table: ``Rows(arr)[a][b]`` is ``arr[a, b]``.

    a and b may be broadcast index arrays, so a law written over tables
    read X[a][b] evaluates a whole block of a grid at once.
    """

    __slots__ = ("arr",)

    def __init__(self, arr):
        self.arr = arr

    def __getitem__(self, a):
        return _Row(self.arr, a)


class _Row:
    __slots__ = ("arr", "a")

    def __init__(self, arr, a):
        self.arr, self.a = arr, a

    def __getitem__(self, b):
        return self.arr[self.a, b]


@cache
def scan_grid(n: int, arity: int) -> tuple:
    """range(n)**arity in lexicographic order, built once per shape.

    Only grids of fewer than GRID_MIN_INSTANCES tuples are served: those
    are scanned tuple by tuple on every check, while larger ones go to
    numpy or are walked once, so the cache holds at most about 75 shapes.
    """
    if n ** arity >= GRID_MIN_INSTANCES:
        raise ValueError(f"{n}**{arity} tuples is no scan grid (limit {GRID_MIN_INSTANCES})")
    return tuple(product(range(n), repeat=arity))


def first_violation(n: int, arity: int, violates, block=None):
    """Lexicographically first tuple of range(n)**arity where a law fails.

    violates(v) decides one tuple; block is its numpy form (see
    ``grid_first_violation``).  Without a block, or on grids of fewer
    than GRID_MIN_INSTANCES tuples, the grid is scanned with violates
    (a small grid read from ``scan_grid``); otherwise it is searched
    with block and the witness is confirmed with violates.
    """
    small = n ** arity < GRID_MIN_INSTANCES
    if small or block is None:
        for v in scan_grid(n, arity) if small else product(range(n), repeat=arity):
            if violates(v):
                return v
        return None
    v = grid_first_violation(n, arity, block)
    if v is not None and not violates(v):
        raise InternalInconsistency(f"grid flags {v} but the definition holds there")
    return v


class FiniteLattice:
    """A bounded lattice with precomputed order masks and meet/join tables."""

    def __init__(self, names, up_rows):
        names = tuple(str(x) for x in names)
        n = len(names)
        if n == 0:
            raise NotALattice("empty carrier")
        if n > MAX_ELEMENTS:
            raise TooLarge(f"{n} elements exceeds the size guard of {MAX_ELEMENTS}")
        if len(set(names)) != n:
            raise NotAPartialOrder("duplicate element names")

        rows = [int(r) for r in up_rows]
        if len(rows) != n:
            raise NotAPartialOrder("relation row count does not match element count")
        full = (1 << n) - 1
        for a in range(n):
            if rows[a] & ~full:
                raise NotAPartialOrder(f"row for {names[a]} references unknown elements")
            rows[a] |= 1 << a
        # transitive closure, then antisymmetry: a <= b <= a with a != b
        # exactly when the two up-sets coincide, so only a repeated row
        # needs the scan for the first such pair
        for k in range(n):
            kbit = 1 << k
            for a in range(n):
                if rows[a] & kbit:
                    rows[a] |= rows[k]
        if len(set(rows)) != n:
            a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                        if rows[a] >> b & 1 and rows[b] >> a & 1)
            raise NotAPartialOrder(f"{names[a]} <= {names[b]} and {names[b]} <= {names[a]}")

        dn = [0] * n
        for a in range(n):
            for b in _bits(rows[a]):
                dn[b] |= 1 << a

        # an element is named by its down-set and by its up-set: the bottom
        # is the x whose up-set is everything, the meet of a and b the x
        # whose down-set is dn[a] & dn[b], and dually the top and the join
        by_dn = {d: x for x, d in enumerate(dn)}
        by_up = {u: x for x, u in enumerate(rows)}
        bottom, top = by_up.get(full), by_dn.get(full)
        if bottom is None:
            raise MissingBound("no global bottom")
        if top is None:
            raise MissingBound("no global top")

        meet_t = [[0] * n for _ in range(n)]
        join_t = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m = by_dn.get(dn[a] & dn[b])
                if m is None:
                    raise NotALattice(f"{names[a]} and {names[b]} have no meet")
                j = by_up.get(rows[a] & rows[b])
                if j is None:
                    raise NotALattice(f"{names[a]} and {names[b]} have no join")
                meet_t[a][b] = meet_t[b][a] = m
                join_t[a][b] = join_t[b][a] = j

        self.n = n
        self.names = names
        self.full_mask = full
        self.bottom = bottom
        self.top = top
        self._up = tuple(rows)
        self._dn = tuple(dn)
        self.meet_table = tuple(tuple(r) for r in meet_t)
        self.join_table = tuple(tuple(r) for r in join_t)
        self._index = {name: i for i, name in enumerate(names)}

    # -- numpy views (built on first use) --------------------------------

    @cached_property
    def meet_array(self):
        return np.array(self.meet_table, dtype=np.uint8)

    @cached_property
    def join_array(self):
        return np.array(self.join_table, dtype=np.uint8)

    @cached_property
    def leq_array(self):
        """leq_array[a, b] is a <= b."""
        up = np.array(self._up, dtype=np.uint64)[:, None]
        return (up >> np.arange(self.n, dtype=np.uint64) & 1).astype(bool)

    # -- order ----------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[a] >> b & 1)

    def up_mask(self, a: int) -> int:
        return self._up[a]

    def down_mask(self, a: int) -> int:
        return self._dn[a]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet_mask(self, mask: int) -> int:
        """Meet of a subset given as a bitmask; the empty meet is top."""
        out = self.top
        for x in _bits(mask):
            out = self.meet_table[out][x]
        return out

    def join_mask(self, mask: int) -> int:
        """Join of a subset given as a bitmask; the empty join is bottom."""
        out = self.bottom
        for x in _bits(mask):
            out = self.join_table[out][x]
        return out

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown element name {name!r}") from None

    # -- structure ------------------------------------------------------

    def covers(self):
        """All pairs (a, b) with a covered by b, in index order."""
        out = []
        for a in range(self.n):
            strict = self._up[a] & ~(1 << a)
            for b in _bits(strict):
                between = strict & self._dn[b] & ~(1 << b)
                if between == 0:
                    out.append((a, b))
        return out

    def atoms(self):
        return [b for (a, b) in self.covers() if a == self.bottom]

    def coatoms(self):
        return [a for (a, b) in self.covers() if b == self.top]

    def distributivity_witness(self):
        """The first triple (a, b, c) violating a∧(b∨c) = (a∧b)∨(a∧c), or None."""

        def fails(M, J, v):
            a, b, c = v
            return M[a][J[b][c]] != J[M[a][b]][M[a][c]]

        return first_violation(
            self.n, 3, lambda v: fails(self.meet_table, self.join_table, v),
            lambda *v: fails(Rows(self.meet_array), Rows(self.join_array), v))

    def is_distributive(self) -> bool:
        return self.distributivity_witness() is None

    def complements_of(self, a: int):
        """All b with a∧b = bottom and a∨b = top."""
        return [
            b
            for b in range(self.n)
            if self.meet(a, b) == self.bottom and self.join(a, b) == self.top
        ]

    def complement_map(self):
        """One complement per element, or None if some element has none."""
        out = []
        for a in range(self.n):
            cs = self.complements_of(a)
            if not cs:
                return None
            out.append(cs[0])
        return tuple(out)

    def is_boolean(self) -> bool:
        return self.is_distributive() and self.complement_map() is not None

    def __repr__(self):
        return f"FiniteLattice({self.n} elements: {' '.join(self.names)})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_leq(cls, names, leq_pairs):
        """Build from arbitrary (a, b) pairs meaning a <= b; closure is taken."""
        names = tuple(names)
        rows = [0] * len(names)
        for a, b in leq_pairs:
            rows[a] |= 1 << b
        return cls(names, rows)

    # covering pairs (a, b), a covered by b, are leq pairs whose closure is the order
    from_cover = from_leq


def chain(k: int, names=None) -> FiniteLattice:
    """The k-element chain 0 < 1 < ... < k-1."""
    if names is None:
        if k == 1:
            names = ("0",)
        else:
            names = ("0",) + tuple(f"m{i}" for i in range(1, k - 1)) + ("1",)
    return FiniteLattice.from_cover(names, [(i, i + 1) for i in range(k - 1)])


def boolean_algebra(atom_names) -> FiniteLattice:
    """Powerset of the given atoms; element index i is the subset with mask i.

    Names are the concatenation of member atom names, "0" for the empty set.
    """
    atom_names = tuple(atom_names)
    k = len(atom_names)
    if k > 6:
        raise TooLarge(f"2^{k} elements exceeds the size guard of {MAX_ELEMENTS}")
    n = 1 << k
    names = []
    for mask in range(n):
        names.append("".join(atom_names[i] for i in _bits(mask)) or "0")
    rows = []
    for mask in range(n):
        row = 0
        for other in range(n):
            if mask & ~other == 0:
                row |= 1 << other
        rows.append(row)
    return FiniteLattice(names, rows)


def antichain_bounded(middle_names) -> FiniteLattice:
    """Bottom, a middle antichain, top: the lattice M_k for k middle elements."""
    middle_names = tuple(middle_names)
    k = len(middle_names)
    names = ("0",) + middle_names + ("1",)
    covers = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    return FiniteLattice.from_cover(names, covers)
