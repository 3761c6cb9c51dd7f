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
  the tuple tables, the numpy route the arrays wrapped in ``Rows``,
  which reads a table of FLAT_MIN_ELEMENTS rows or more through flat
  offsets a*n + b (widened to intp, b added in place) and a smaller
  one as arr[a, b].  The grid's broadcast aranges are built once per
  shape (``grid_axes``).

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
# Tables of at least this many rows are read by ``Rows`` through flat
# offsets; below it the extra numpy calls cost more than the 1-D gather
# saves.  The seven checks P1-P5, NORM and FLAT on one fixpoint algebra,
# flat against arr[a, b] (best of 45 runs; 2-CPU Xeon, numpy 2.4.6):
# n = 4 107 against 79 us, n = 10 161 against 152, n = 11 175 against 176,
# n = 12 184 against 198, n = 16 226 against 305.
FLAT_MIN_ELEMENTS = 12


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
    nonzero of a C-order block is the first violation overall.  The
    aranges are the read-only ones of ``grid_axes``, built once per shape.
    """
    axes = grid_axes(n, arity)
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
    read X[a][b] evaluates a whole block of a grid at once.  An ndarray
    of at least FLAT_MIN_ELEMENTS rows is read through flat offsets,
    ``arr.reshape(-1)[a*n + b]``, a 1-D gather where ``arr[a, b]`` is a
    2-D one: the offset is widened to intp before the multiply (a
    gathered uint8 index times 64 would wrap), and b is added into it in
    place when it already has the broadcast shape, so a full block holds
    one intp temporary, not two.  Smaller arrays, and tables that are no
    ndarray but answer ``X[a, b]`` themselves, are read arr[a, b].
    """

    __slots__ = ("arr", "flat", "n")

    def __init__(self, arr):
        self.arr, self.flat, self.n = arr, None, 0
        if isinstance(arr, np.ndarray) and len(arr) >= FLAT_MIN_ELEMENTS:
            self.flat, self.n = arr.reshape(-1), arr.shape[1]

    def __getitem__(self, a):
        return _Row(self, a)


class _Row:
    __slots__ = ("rows", "a")

    def __init__(self, rows, a):
        self.rows, self.a = rows, a

    def __getitem__(self, b):
        rows = self.rows
        if rows.flat is None:
            return rows.arr[self.a, b]
        off = np.multiply(self.a, rows.n, dtype=np.intp)
        if np.broadcast(off, b).shape == off.shape:
            off += b
        else:
            off = off + b
        return rows.flat[off]


@cache
def grid_axes(n: int, arity: int) -> tuple:
    """The aranges of range(n)**arity, axis i of shape (1, .., n, .., 1)
    with n at position i, built once per shape and read-only, so a block
    handed them cannot write into the next check's grid."""
    axes = tuple(np.arange(n).reshape((1,) * i + (n,) + (1,) * (arity - 1 - i))
                 for i in range(arity))
    for ax in axes:
        ax.flags.writeable = False
    return axes


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


def index_pairs(pairs, n, error, what):
    """The (u, v) pairs as int pairs, each side an index in range(n); a
    pair with any other side raises error "... references unknown <what>"."""
    out = []
    for u, v in pairs:
        if not all(isinstance(x, (int, np.integer)) and 0 <= x < n for x in (u, v)):
            raise error(f"pair {(u, v)!r} references unknown {what}")
        out.append((int(u), int(v)))
    return out


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

        self._assign(names, rows, dn, bottom, top,
                     tuple(map(tuple, meet_t)), tuple(map(tuple, join_t)))

    def _assign(self, names, up, dn, bottom, top, meet_table, join_table):
        """Set the fields of a lattice already known to be one: its names,
        up and down rows, bounds and meet and join tables (tuples of
        tuples).  The constructor ends here, and so does a builder that
        knows its tables by formula (``boolean_algebra``,
        ``frames.fixpoints``)."""
        self.n = len(names)
        self.names = names
        self.full_mask = (1 << self.n) - 1
        self.bottom = bottom
        self.top = top
        self._up = tuple(up)
        self._dn = tuple(dn)
        self.meet_table = meet_table
        self.join_table = join_table
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
        """The elements covering the bottom, ascending: those whose down-set
        is themselves and the bottom."""
        bottom = self.bottom
        bot = 1 << bottom
        return [b for b, d in enumerate(self._dn) if d == bot | 1 << b and b != bottom]

    def complement_map(self):
        """The least-indexed complement of each element (the first b with
        a∧b = bottom and a∨b = top, read off a's meet and join rows), or
        None if some element has none."""
        out = []
        bottom, top = self.bottom, self.top
        for M, J in zip(self.meet_table, self.join_table):
            for b, j in enumerate(J):
                if j == top and M[b] == bottom:
                    out.append(b)
                    break
            else:
                return None
        return tuple(out)

    def __repr__(self):
        return f"FiniteLattice({self.n} elements: {' '.join(self.names)})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_leq(cls, names, leq_pairs):
        """Build from arbitrary (a, b) index pairs meaning a <= b; closure is taken."""
        names = tuple(names)
        rows = [0] * len(names)
        for a, b in index_pairs(leq_pairs, len(names), NotAPartialOrder, "elements"):
            rows[a] |= 1 << b
        return cls(names, rows)

    # covering pairs (a, b), a covered by b, are leq pairs whose closure is the order
    from_cover = from_leq


def chain(k: int, names=None) -> FiniteLattice:
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise NotALattice("empty carrier")
    if names is None:
        if k == 1:
            names = ("0",)
        else:
            names = ("0",) + tuple(f"m{i}" for i in range(1, k - 1)) + ("1",)
    return FiniteLattice.from_cover(names, [(i, i + 1) for i in range(k - 1)])


def boolean_algebra(atom_names) -> FiniteLattice:
    """Powerset of the given atoms; element index i is the subset with mask i.

    Each atom is named by its own name.  The other subsets are named by
    the concatenation of their members' names, "0" for the empty set,
    when those names are all distinct; otherwise by their members in
    braces, comma-joined, "{}" for the empty set (``frames.set_label``).
    Subset masks order, meet and join, so the tables are built by
    formula (meet a & b, join a | b, bottom 0, top the full mask), not
    searched for by the general constructor.
    """
    atom_names = tuple(atom_names)
    k = len(atom_names)
    if k > 6:
        raise TooLarge(f"2^{k} elements exceeds the size guard of {MAX_ELEMENTS}")
    n = 1 << k
    subsets = [[atom_names[i] for i in _bits(mask)] for mask in range(n)]
    names = tuple("".join(s) or "0" for s in subsets)
    if len(set(names)) != n:
        names = tuple(s[0] if len(s) == 1 else "{" + ",".join(s) + "}" for s in subsets)
    if len(set(names)) != n:
        raise NotAPartialOrder("duplicate element names")
    # has[i]: the subsets containing atom i.  The up-set of a subset is
    # has[i] intersected over its members, and its down-set ~has[i] over
    # the other atoms, so each row is a neighbour's row with one more
    # has[i] (or ~has[i]) intersected in
    full = (1 << n) - 1
    has = [sum(1 << b for b in range(n) if b >> i & 1) for i in range(k)]
    up, dn = [full] * n, [full] * n
    for a in range(1, n):
        low = (a & -a).bit_length() - 1
        up[a] = up[a & (a - 1)] & has[low]
    for a in range(n - 2, -1, -1):
        low = (~a & (a + 1)).bit_length() - 1
        dn[a] = dn[a | 1 << low] & ~has[low]
    masks = np.arange(n)
    lat = FiniteLattice.__new__(FiniteLattice)
    lat._assign(names, up, dn, 0, n - 1,
                tuple(map(tuple, np.bitwise_and.outer(masks, masks).tolist())),
                tuple(map(tuple, np.bitwise_or.outer(masks, masks).tolist())))
    return lat


def antichain_bounded(middle_names) -> FiniteLattice:
    """Bottom, a middle antichain, top: the lattice M_k for k middle elements."""
    middle_names = tuple(middle_names)
    k = len(middle_names)
    names = ("0",) + middle_names + ("1",)
    covers = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    return FiniteLattice.from_cover(names, covers)
