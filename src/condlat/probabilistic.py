"""Threshold-confidence conditionals on a finite probability space.

Worlds are 0..n-1, subsets are bitmasks.  Each world w carries a measure
concentrated on itself: mu_w({w}) = self_mass and mu_w({v}) = other_mass
for v != w.  The conditional of A and B holds at w when the conditional
probability mu_w(B|A) clears a fixed threshold.  With the default
parameters (11 worlds, self mass 9/10, threshold 9/10) this operation on
the full powerset satisfies the five core axioms and modus ponens but
not normality; the stock failure conditions on everything except world
0, where either ten-minus-one consequent sits exactly at the threshold
while their intersection drops below it.

Two evaluation routes are kept deliberately separate: a scalar route,
world by world, in exact integer weights over a common denominator
(``Fraction`` only at the ``measure`` and ``cond_prob`` API), written
once on arrays as ``ConfidenceSpace.arrows`` and read one cell at a time
by ``arrow``, and an integer numpy route that builds the full 2^n x 2^n
table in closed form from threshold cut points, one block of antecedent
rows at a time with set sizes read by popcount.  ``verify_axioms`` reads
every law from its definition in ``ops.AXIOM_DEFS`` on the powerset and
decides every axiom except NORM exactly on the table, over the same row
blocks, so no temporary the size of the table is made: P4 and P5 by
reductions that cover all 2^3n triples, and P2, P3 and MP over all
pairs.  Once P4 holds, P3 and MP are decided on the 3^n cells (A, B)
with B ⊇ ~A alone, and once P3 holds too, so are P2 and the row
ranges that P5's reduction reads.  It cross-checks the table against
``arrows`` on seeded cells and the ternary sweeps against the interval
family; a disagreement is a bug, not a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from itertools import accumulate
from math import lcm

import numpy as np

from .errors import ConditioningOnNull, InternalInconsistency, TooLarge, WidthMismatch
from .lattice import Rows, first_true_cell
from .ops import AXIOM_DEFS, Axiom

# full tables are dense: 2^12 x 2^12 at 2 bytes per cell is the ceiling
TABLE_LIMIT = 12
# cells of the table written per block of antecedent rows
TABLE_BLOCK_CELLS = 1 << 16


def _mask(worlds) -> int:
    return sum(1 << w for w in worlds)


@dataclass(frozen=True)
class ConfidenceSpace:
    """Parameters of the measure family, all exact rationals.

    Where the antecedent has measure zero at a world (with positive
    other_mass that is only the empty set), the threshold test reads
    0 >= 0 and holds, so every such world is in the conditional.
    """

    world_count: int
    self_mass: Fraction
    other_mass: Fraction
    threshold: Fraction

    def __post_init__(self):
        n = self.world_count
        if n < 1:
            raise ValueError("need at least one world")
        for name in ("self_mass", "other_mass", "threshold"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if not 0 < self.self_mass <= 1 or self.other_mass < 0:
            raise ValueError("masses must be a positive and a nonnegative rational")
        if self.self_mass + (n - 1) * self.other_mass != 1:
            raise ValueError("masses of each mu_w must sum to exactly 1")
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must lie in (0, 1], else the comparison is vacuous")

    # -- scalar route ----------------------------------------------------

    @cached_property
    def full(self) -> int:
        return (1 << self.world_count) - 1

    def _guard(self, S: int):
        if S & ~self.full:
            raise WidthMismatch(f"subset {S:#x} exceeds {self.world_count} worlds")

    @cached_property
    def _scale(self) -> tuple:
        """(D, s, o): D the least common denominator of the two masses,
        s = D*self_mass and o = D*other_mass, all integers."""
        D = lcm(self.self_mass.denominator, self.other_mass.denominator)
        return D, int(self.self_mass * D), int(self.other_mass * D)

    def _weights(self, k: int) -> tuple:
        """D*mu_w(S) for |S| = k, integers, indexed by whether w lies in
        S: (k*o, s + (k-1)*o)."""
        _, s, o = self._scale
        return k * o, s + (k - 1) * o

    def measure(self, w: int, S: int) -> Fraction:
        """mu_w(S), exactly."""
        if not 0 <= w < self.world_count:
            raise WidthMismatch(f"world {w} is not one of the {self.world_count} worlds")
        self._guard(S)
        return Fraction(self._weights(S.bit_count())[S >> w & 1], self._scale[0])

    def cond_prob(self, w: int, B: int, A: int) -> Fraction:
        """mu_w(B | A); conditioning on a null set is an error here,
        where the arrow holds at every world."""
        base = self.measure(w, A)
        if base == 0:
            raise ConditioningOnNull(f"mu_{w}(A) = 0 for A = {A:#x}")
        return self.measure(w, A & B) / base

    def arrow(self, A: int, B: int) -> int:
        """Worlds where the confidence in B given A clears the threshold,
        as a mask: ``arrows`` on one cell."""
        self._guard(A), self._guard(B)
        return int(self.arrows(A, B))

    def arrows(self, A, B) -> np.ndarray:
        """The arrow on broadcast arrays of subsets, as int64 masks: w is
        in A -> B when td * D*mu_w(A&B) >= tn * D*mu_w(A), with tn/td the
        threshold, compared world by world on integer weights with no cut
        points.  D*mu_w(S) is |S|*o, plus s - o when w lies in S.  Every
        product is at most td*D, so the weights are int64 while that
        stays below 2^62 and Python ints otherwise."""
        tn, td = self.threshold.as_integer_ratio()
        D, s, o = self._scale
        exact = np.int64 if td * D < 1 << 62 else object
        worlds = np.arange(self.world_count)
        A = np.asarray(A, dtype=np.int64)[..., None]
        AB = A & np.asarray(B, dtype=np.int64)[..., None]

        def weight(S):
            return (np.bitwise_count(S).astype(exact) * o
                    + (S >> worlds & 1).astype(exact) * (s - o))

        hit = td * weight(AB) >= tn * weight(A)
        return hit.astype(np.int64) @ (1 << worlds)


def confidence_space(
    world_count: int = 11,
    self_mass: Fraction = Fraction(9, 10),
    threshold: Fraction = Fraction(9, 10),
) -> ConfidenceSpace:
    """Spread the remaining mass evenly; defaults are the reference
    11-world configuration (self 9/10, others 1/100 each)."""
    self_mass = Fraction(self_mass)
    if world_count == 1:
        if self_mass != 1:
            raise ValueError("a single world must carry all the mass")
        other = Fraction(0)
    else:
        other = (1 - self_mass) / (world_count - 1)
    return ConfidenceSpace(world_count, self_mass, other, Fraction(threshold))


# the stock normality failure: A = all but world 0, B and C each drop one
# further world, so at 0 both confidences are exactly 9/10 but B cap C
# gives only 8/10
NORM_WITNESS = (_mask(range(1, 11)), _mask(range(1, 10)), _mask(range(2, 11)), 0)


# -- integer table route -------------------------------------------------

def _cuts(space: ConfidenceSpace) -> np.ndarray:
    """cut[p, a] = the least k in 0..n at which the threshold test
    td * D*mu_w(A&B) >= tn * D*mu_w(A) clears, with a = |A|, k = |A&B|
    and w in A&B (p = 0), in A-B (p = 1) or outside A (p = 2), else
    n + 1.  The test is monotone in k (o >= 0), so the cut is the number
    of k at which it fails, counted on one broadcast (3, n+1, n+1) grid
    of integer weights.  Each weight is at most 2D, so they are int64
    while td*D < 2^62 and Python ints otherwise, as in
    ``ConfidenceSpace.arrows``."""
    n = space.world_count
    D, s, o = space._scale
    tn, td = space.threshold.as_integer_ratio()
    ko = np.arange(n + 1).astype(np.int64 if td * D < 1 << 62 else object) * o
    # D*mu_w(A&B) over k and D*mu_w(A) over a, the three placements of w stacked
    num = td * (ko + [[s - o], [0], [0]])
    den = tn * (ko + [[s - o], [s - o], [0]])
    return np.count_nonzero(num[:, None] < den[:, :, None], axis=2).astype(np.uint8)


def _row_blocks(N: int) -> list:
    """Slices of consecutive rows of a (N, N) table, about
    TABLE_BLOCK_CELLS cells each."""
    step = max(1, TABLE_BLOCK_CELLS // N)
    return [slice(lo, lo + step) for lo in range(0, N, step)]


def arrow_table(space: ConfidenceSpace) -> np.ndarray:
    """Dense (2^n, 2^n) uint16 table of arrow masks, pure integer
    arithmetic.  With the space's integer scale (D, s, o), D*mu_w(S) is
    s + (|S|-1)*o for w in S and |S|*o otherwise, so the threshold test
    td * (D*mu_w(A&B)) >= tn * (D*mu_w(A)) at w depends only on
    a = |A|, k = |A&B| and whether w lies in A&B, in A-B or outside A.
    For each of the three the test is monotone in k (o >= 0), so it is
    the cut k >= cut[a].  The table is written in blocks of antecedent
    rows of about TABLE_BLOCK_CELLS cells: a and k by popcount, and each
    of the three parts kept or zeroed by multiplying it with its cut
    test."""
    n = space.world_count
    if n > TABLE_LIMIT:
        raise TooLarge(f"{n} worlds: table would have 2^{2 * n} cells")
    both, only_a, neither = _cuts(space)

    N = 1 << n
    masks = np.arange(N, dtype=np.uint16)
    table = np.empty((N, N), dtype=np.uint16)
    for rows in _row_blocks(N):
        A = masks[rows, None]
        a = np.bitwise_count(A)
        AB = A & masks
        k = np.bitwise_count(AB)
        out = table[rows]
        np.multiply(AB, k >= both[a], out=out)
        out |= (A ^ AB) * (k >= only_a[a])
        out |= (A ^ (N - 1)) * (k >= neither[a])
    return table


@dataclass(frozen=True)
class ProbCheck:
    axiom: Axiom
    holds: bool
    mode: str                 # "exhaustive"; NORM: "pinned" | "structured"
    instances: int
    witness: tuple | None = None   # (A, B, w) or (A, B, C, w), masks and a world

    def describe(self) -> str:
        if self.holds:
            return f"{self.axiom} holds ({self.mode}, {self.instances} instances)"
        *sets, w = self.witness
        names = ",".join(f"{{{bin(S)[2:]}}}" for S in sets)
        return f"{self.axiom} fails at ({names}) world {w} ({self.mode})"


@dataclass(frozen=True)
class ProbReport:
    checks: dict = field(default_factory=dict)
    crosschecked: int = 0

    def __getitem__(self, axiom: Axiom) -> ProbCheck:
        return self.checks[axiom]

    @property
    def ok(self) -> bool:
        """All checks except NORM, which is expected to fail on the
        reference configuration."""
        return all(c.holds for ax, c in self.checks.items() if ax is not Axiom.NORM)


def _first_violation(viol: np.ndarray, *index_arrays):
    """Lexicographically first nonzero cell, decoded through the index
    arrays; appends the lowest violating world."""
    coords = first_true_cell(viol)
    if coords is None:
        return None
    sets = tuple(int(arr[c]) for arr, c in zip(index_arrays, coords))
    bits = int(viol[coords])
    return sets + ((bits & -bits).bit_length() - 1,)


def interval_sets(n: int) -> tuple:
    """The structured family: the empty set and every index interval,
    i..j as the mask 2^(j+1) - 2^i."""
    return (0, *((2 << j) - (1 << i) for i in range(n) for j in range(i, n)))


# -- the laws, read from ops.AXIOM_DEFS ----------------------------------
# Every pass below walks the table in the row blocks of ``_row_blocks``,
# so no temporary the size of the table is made.  A reduction flags every
# antecedent A whose row (P2, P3, MP, read at the cells ``_Cells``) or
# (B, C) block (P4, P5) holds a violation without visiting it, and then
# the first flagged one is scanned from the axiom's definition.

class _Powerset:
    """The powerset as an axiom's lattice and, through ``Rows``, its meet a & b."""

    def __init__(self, N: int):
        self.top, self.bottom = N - 1, 0

    def __getitem__(self, ab):
        return ab[0] & ab[1]


class _Arrow:
    """The arrow as a table for ``Rows``: X[a, b] = read(a, b), from the
    uint16 table or the scalar ``space.arrow``.  The (A, B) grid of one
    row block it was built with is answered with that block of the table
    itself, where a gather would copy it for each law that reads it."""

    def __init__(self, read, grid=(None, None), block=None):
        self.read, self.grid, self.block = read, grid, block

    def __getitem__(self, ab):
        if ab[0] is self.grid[0] and ab[1] is self.grid[1]:
            return self.block
        return self.read(*ab)


def _excess(ax: Axiom, N: int, T, v):
    """lhs & ~rhs of ax at v, T read through ``Rows``: nonzero exactly
    where lhs <= rhs fails, its lowest bit the lowest failing world."""
    L = _Powerset(N)
    lhs, rhs = AXIOM_DEFS[ax].eval(L, Rows(L), T, v)
    return lhs & ~rhs


def _first_in_blocks(T: np.ndarray, ax: Axiom, blocks, *fixed):
    """First violation (*fixed, X, Y, w) of ax in lexicographic order,
    with the leading sets fixed, X over the rows of the blocks in turn
    and Y over every set, or None."""
    N = len(T)
    masks = np.arange(N, dtype=np.uint16)
    for rows in blocks:
        X = masks[rows, None]
        read = Rows(_Arrow(lambda a, b: T[a, b], (X, masks), T[rows]))
        found = _first_violation(_excess(ax, N, read, (*fixed, X, masks)), X[:, 0], masks)
        if found is not None:
            return fixed + found
    return None


def _first_block_witness(T: np.ndarray, flagged: np.ndarray, ax: Axiom):
    """The first violation of ax at the first flagged A, its row (binary
    ax) or its (B, C) block (ternary ax) scanned from the definition, or
    None if nothing is flagged."""
    hit = first_true_cell(flagged)
    if hit is None:
        return None
    A, = hit
    if AXIOM_DEFS[ax].arity == 2:
        found = _first_in_blocks(T, ax, [slice(A, A + 1)])
    else:
        found = _first_in_blocks(T, ax, _row_blocks(len(T)), A)
    if found is None:
        raise InternalInconsistency(f"sweep flagged antecedent {A:#x} but its block holds")
    return found


def _subset_pairs(k: int) -> tuple:
    """(A, S) for the 3^k pairs S ⊆ A of subsets of k worlds, as uint16 arrays."""
    A = S = np.zeros(1, dtype=np.uint16)
    for i in range(k):
        A, S = np.concatenate([A, A | 1 << i, A | 1 << i]), np.concatenate([S, S, S | 1 << i])
    return A, S


@cache
def _cell_layout(N: int) -> tuple:
    """The pairs S ⊆ A of ``_Cells`` on a (N, N) table, read-only:
    (low_a, low_s) over the 2^m rows of a row block, (high_a, high_s)
    over the higher bits, by antecedent and shifted into place, starts[j]
    the first high pair of block j, and low_at = low_a * N."""
    n = N.bit_length() - 1
    m = min(N, _row_blocks(N)[0].stop).bit_length() - 1
    low_a, low_s = _subset_pairs(m)
    high_a, high_s = _subset_pairs(n - m)
    order = np.argsort(high_a, kind="stable")
    high_a, high_s = high_a[order] << m, high_s[order] << m
    starts = [0, *accumulate(1 << j.bit_count() for j in range(N >> m))]
    low_at = low_a.astype(np.intp) * N
    for x in (low_a, low_s, high_a, high_s, low_at):
        x.flags.writeable = False
    return low_a, low_s, high_a, high_s, starts, low_at


class _Cells:
    """A table with monotone rows (P4 holds) read once at its 3^n cells
    (a, b) = (A, S | ~A), S ⊆ A, one for each pair (A, A & B): E =
    T[a, b], and ``flagged[ax]``, every A whose row holds a violation of
    ax at a cell.  Those flags decide every row where a violation at
    (A, B) is one at (A, B | ~A) too:
    - P3 and MP: T[A, B] can only grow towards B | ~A, while T[A, A & B]
      and A - B stay;
    - P2 once P3 holds as well: then T[A, B] = T[A, A & B], and both
      sides of P2 read A & B alone (where P3 fails its flags are unused).
    The cells go by the pairs of the high bits of A, by antecedent, and
    in each by the pairs of its low bits, those that vary within a row
    block of ``_row_blocks``; so the cells of each block lie together.
    They are read in runs of at most TABLE_BLOCK_CELLS cells, each built
    from the layout, which is built once per n: only E is kept, and no
    intp array of 3^n indices is made."""

    def __init__(self, T: np.ndarray):
        N = len(T)
        low_a, low_s, high_a, high_s, self.starts, self.low_at = _cell_layout(N)
        width = len(low_a)
        step = max(1, TABLE_BLOCK_CELLS // width)
        self.E = np.empty(width * len(high_a), dtype=np.uint16)
        self.flagged = {ax: np.zeros(N, dtype=bool) for ax in (Axiom.P3, Axiom.MP, Axiom.P2)}
        for lo in range(0, len(high_a), step):
            a = (high_a[lo:lo + step, None] | low_a).reshape(-1)
            b = (high_s[lo:lo + step, None] | low_s).reshape(-1) | (a ^ (N - 1))
            E = self.E[lo * width:(lo + step) * width]
            E[:] = Rows(T)[a][b]
            read = Rows(_Arrow(lambda a, b: T[a, b], (a, b), E))
            for ax, flagged in self.flagged.items():
                flagged[a[_excess(ax, N, read, (a, b)) != 0]] = True

    def block_values(self, j: int) -> np.ndarray:
        """(a - start) * N + E over the cells of row block j, the offsets
        of its values in a (rows, N) buffer of that block."""
        lo, hi = self.starts[j], self.starts[j + 1]
        width = len(self.low_at)
        return self.E[lo * width:hi * width].reshape(hi - lo, width) + self.low_at


def _row_law_witness(T: np.ndarray, ax: Axiom, cells):
    """First violation (A, B, w) of the binary law ax: at the first row
    that ``cells`` flags, scanned from the definition, when given (valid
    for ax as ``_Cells`` says), else over every pair, block by block."""
    if cells is None:
        return _first_in_blocks(T, ax, _row_blocks(len(T)))
    return _first_block_witness(T, cells.flagged[ax], ax)


def p4_witness(T: np.ndarray):
    """First P4 violation (A, B, C, w) of a (2^n, 2^n) uint16 table, or
    None.  P4 holds iff every row B -> T[A, B] is monotone, and a row is
    monotone iff it grows along every cover B < B | 1<<i.  A block of
    rows is read as words of four cells (of N cells below four): world
    bits 0 and 1 pair 16-bit lanes inside a word, compared by shifting
    the word, and higher bits pair whole words."""
    N = len(T)
    lanes = min(4, N)
    inner = lanes.bit_length() - 1          # the world bits inside a word
    word = np.dtype(f"u{2 * lanes}")
    flagged = np.zeros(N, dtype=bool)
    for rows in _row_blocks(N):
        x = T[rows].view(word)
        r, W = x.shape
        in_word = np.zeros_like(x)
        for i in range(inner):
            keep = sum(0xFFFF << 16 * lane for lane in range(lanes) if not lane >> i & 1)
            in_word |= x & ~(x >> (16 << i)) & keep
        # the t lowest bits of the word index are paired on a copy of the
        # block with those bits outermost, so no pairing reads short runs
        t = min(4, W.bit_length() - 1)
        y = x.reshape(r, -1, 1 << t).transpose(0, 2, 1).copy()
        paired = np.zeros((r, W // 2), dtype=word)
        for j in range(W.bit_length() - 1):
            pairs = y.reshape(r, -1, 2, (W >> t) << j) if j < t else x.reshape(r, -1, 2, 1 << j)
            low = paired.reshape(pairs[:, :, 0].shape)
            low |= pairs[:, :, 0] & ~pairs[:, :, 1]
        flagged[rows] = in_word.any(axis=1) | paired.any(axis=1)
    return _first_block_witness(T, flagged, Axiom.P4)


def p5_witness(T: np.ndarray, cells: _Cells | None = None):
    """First P5 violation (A, B, C, w) of a (2^n, 2^n) uint16 table, or
    None.  With d = A & B and u = T[d, C], P5 fails at A iff some u in
    the range of a row d ⊆ A lies in Bad[A] = {u : T[A, u] ⊄ u}.  Row
    d's range is a bit row, scattered block by block into one reused
    buffer and packed; a subset-sum (zeta) transform over the Boolean
    lattice ORs it into the row of every superset of d, which then
    meets Bad row by row.  The range is scattered from the whole row,
    or, given the table's ``_Cells`` where P3 and P4 hold, from the
    row's 3^n cells alone: there T[d, C] = T[d, (C & d) | ~d]."""
    N = len(T)
    cols = np.arange(N, dtype=np.uint16)
    blocks = _row_blocks(N)
    seen = np.empty(T[blocks[0]].shape, dtype=bool)   # every block has its shape
    offsets = np.arange(0, seen.size, N)[:, None]
    reach = np.empty((N, (N + 7) // 8), dtype=np.uint8)
    bad = np.empty_like(reach)
    for j, rows in enumerate(blocks):
        t = T[rows]
        seen.fill(False)
        if cells is None:
            seen.reshape(-1)[t + offsets] = True
        else:
            seen.reshape(-1)[cells.block_values(j)] = True
        reach[rows] = np.packbits(seen, axis=1)
        bad[rows] = np.packbits((t & ~cols) != 0, axis=1)
    for i in range(N.bit_length() - 1):
        halves = reach.reshape(-1, 2, 1 << i, reach.shape[1])
        halves[:, 1] |= halves[:, 0]
    reach &= bad
    return _first_block_witness(T, reach.any(axis=1), Axiom.P5)


def _row_and_range_witnesses(T: np.ndarray, monotone: bool) -> dict:
    """First witnesses of P3, MP, P2 and P5.  Monotone rows (P4 holds)
    settle P3 and MP on the 3^n cells; P3 holding as well settles P2
    and the row ranges of P5 there too.  The cells are freed on return,
    before the interval family is read."""
    cells = _Cells(T) if monotone else None
    found = {ax: _row_law_witness(T, ax, cells) for ax in (Axiom.P3, Axiom.MP)}
    if found[Axiom.P3] is not None:
        cells = None
    found[Axiom.P2] = _row_law_witness(T, Axiom.P2, cells)
    found[Axiom.P5] = p5_witness(T, cells)
    return found


def verify_axioms(
    space: ConfidenceSpace,
    samples=None,
    seed: int = 0,
    exhaustive=None,
    crosscheck: int = 512,
) -> ProbReport:
    """Check P1-P5, MP and NORM, each read from ``ops.AXIOM_DEFS``.

    Every law but NORM is decided exactly on the table, in its blocks of
    antecedent rows, and a failing one reports its lexicographically
    first instance with the lowest world: P1 over every A, and P4 and P5
    over all 2^3n triples by the sweeps ``p4_witness`` and
    ``p5_witness``.  The binary laws P2, P3 and MP are read over every
    pair, block by block, unless the table's 3^n cells (A, B ⊇ ~A),
    ``_Cells``, decide them: once P4 holds the rows are monotone, and a
    P3 or MP violation at (A, B) is one at (A, B | ~A) too; once P3
    holds as well, T[A, B] = T[A, A & B], so P2 is decided there too and
    P5 scatters each row's range from its cells alone.  The first row
    the cells flag is scanned from the definition, so the witness is the
    same on either route.  The interval family
    is evaluated as a second route for P4 and P5: a violation there
    that a sweep missed raises InternalInconsistency.  NORM
    evaluates the pinned reference witness on both routes and only
    searches the interval family when that instance unexpectedly passes.
    Before any axiom runs, ``crosscheck`` cells of the table picked by
    ``seed`` are recomputed by ``space.arrows``, which compares integer
    weights world by world and never reads the table's cut points; a
    mismatch raises InternalInconsistency at the first such cell.
    ``samples`` and ``exhaustive`` are ignored; they keep the positional
    form ``verify_axioms(space, samples, seed, exhaustive)`` working.
    """
    n = space.world_count
    N = 1 << n
    T = arrow_table(space)

    crosschecked = 0
    if crosscheck:
        picks = np.vstack([np.random.default_rng(seed).integers(0, N, size=(crosscheck, 2)),
                           [(N - 1, N - 1), (0, 0), (0, N - 1), (N - 1, 0),
                            (NORM_WITNESS[0] & (N - 1), NORM_WITNESS[1] & (N - 1))]])
        # the distinct cells, in row-major order
        a, b = np.divmod(np.unique(picks @ (N, 1)), N)
        hit = first_true_cell(space.arrows(a, b) != T[a, b])
        if hit is not None:
            i, = hit
            raise InternalInconsistency(
                f"table and scalar routes disagree at ({a[i]:#x},{b[i]:#x})"
            )
        crosschecked = len(a)

    masks = np.arange(N, dtype=np.uint16)
    arrow = Rows(_Arrow(lambda a, b: T[a, b]))
    fam = np.array(interval_sets(n), dtype=np.uint16)
    fam3 = (fam[:, None, None], fam[None, :, None], fam[None, None, :])

    def swept(ax, witness):
        # the interval family as the second route of a sweep that holds
        if witness is None and _excess(ax, N, arrow, fam3).any():
            raise InternalInconsistency(f"{ax} sweep holds but the interval family fails")
        return witness

    found = {
        Axiom.P1: _first_violation(_excess(Axiom.P1, N, arrow, (masks,)), masks),
        Axiom.P4: swept(Axiom.P4, p4_witness(T)),
    }
    found.update(_row_and_range_witnesses(T, found[Axiom.P4] is None))
    found[Axiom.P5] = swept(Axiom.P5, found[Axiom.P5])
    checks = {ax: ProbCheck(ax, found[ax] is None, "exhaustive",
                            N ** AXIOM_DEFS[ax].arity, found[ax])
              for ax in (Axiom.P1, Axiom.P2, Axiom.MP, Axiom.P3, Axiom.P4, Axiom.P5)}

    # NORM: evaluate the pinned witness on both routes; fall back to a
    # family scan only if it unexpectedly holds (a different space)
    wn = None
    if n == 11:
        *sets, w = NORM_WITNESS
        if _excess(Axiom.NORM, N, arrow, sets) >> w & 1:
            if not _excess(Axiom.NORM, N, Rows(_Arrow(space.arrow)), sets) >> w & 1:
                raise InternalInconsistency("routes disagree on the pinned witness")
            wn = NORM_WITNESS
    if wn is None:
        wn = _first_violation(_excess(Axiom.NORM, N, arrow, fam3), fam, fam, fam)
    checks[Axiom.NORM] = ProbCheck(
        Axiom.NORM, wn is None, "pinned" if wn == NORM_WITNESS else "structured",
        1 if wn == NORM_WITNESS else len(fam) ** 3, wn,
    )

    return ProbReport(checks, crosschecked=crosschecked)
