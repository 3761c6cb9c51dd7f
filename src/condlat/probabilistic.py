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
(``Fraction`` only at the ``measure`` and ``cond_prob`` API), and an
integer numpy route that builds the full 2^n x 2^n table in closed form
from threshold cut points, one block of antecedent rows at a time with
set sizes read by popcount.  ``verify_axioms`` reads every law from its
definition in ``ops.AXIOM_DEFS`` on the powerset, decides every axiom
except NORM exactly on the table (P4 and P5 by reductions that cover
all 2^3n triples), cross-checks the table against the scalar route on
seeded cells and the ternary sweeps against the interval family; a
disagreement is a bug, not a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import ConditioningOnNull, InternalInconsistency, TooLarge, WidthMismatch
from .lattice import Rows
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

    ``empty_antecedent_total`` governs worlds where the antecedent has
    measure zero (with positive other_mass that is only the empty set):
    True puts every such world in the conditional, False keeps them all
    out.  The definition itself is silent there; this knob is ours.
    """

    world_count: int
    self_mass: Fraction
    other_mass: Fraction
    threshold: Fraction
    empty_antecedent_total: bool = True

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
        self._guard(S)
        return Fraction(self._weights(S.bit_count())[S >> w & 1], self._scale[0])

    def cond_prob(self, w: int, B: int, A: int) -> Fraction:
        """mu_w(B | A); conditioning on a null set is an error here,
        the knob on the space only shapes the arrow."""
        base = self.measure(w, A)
        if base == 0:
            raise ConditioningOnNull(f"mu_{w}(A) = 0 for A = {A:#x}")
        return self.measure(w, A & B) / base

    def arrow(self, A: int, B: int) -> int:
        """Worlds where the confidence in B given A clears the threshold:
        td * D*mu_w(A&B) >= tn * D*mu_w(A) with tn/td the threshold, one
        world at a time on integer weights; |A| and |A&B| are counted
        once per call."""
        self._guard(A), self._guard(B)
        tn, td = self.threshold.as_integer_ratio()
        AB = A & B
        weight_a, weight_ab = self._weights(A.bit_count()), self._weights(AB.bit_count())
        out = 0
        for w in range(self.world_count):
            base = weight_a[A >> w & 1]
            if base == 0:
                hit = self.empty_antecedent_total
            else:
                hit = td * weight_ab[AB >> w & 1] >= tn * base
            out |= hit << w
        return out


def confidence_space(
    world_count: int = 11,
    self_mass: Fraction = Fraction(9, 10),
    threshold: Fraction = Fraction(9, 10),
    empty_antecedent_total: bool = True,
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
    return ConfidenceSpace(
        world_count, self_mass, other, Fraction(threshold), empty_antecedent_total
    )


# the stock normality failure: A = all but world 0, B and C each drop one
# further world, so at 0 both confidences are exactly 9/10 but B cap C
# gives only 8/10
NORM_WITNESS = (_mask(range(1, 11)), _mask(range(1, 10)), _mask(range(2, 11)), 0)


# -- integer table route -------------------------------------------------

def _cuts(n: int, test) -> np.ndarray:
    """cut[a] = the least k in 0..n with test(a, k), else n + 1."""
    return np.array([next((k for k in range(n + 1) if test(a, k)), n + 1)
                     for a in range(n + 1)], dtype=np.uint8)


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
    _, s, o = space._scale
    tn, td = space.threshold.numerator, space.threshold.denominator

    def clears(num, den):
        return td * num >= tn * den

    def off(a, k):   # w outside A; a null antecedent goes by the knob
        return clears(k * o, a * o) if a * o else space.empty_antecedent_total

    both = _cuts(n, lambda a, k: clears(s + (k - 1) * o, s + (a - 1) * o))
    only_a = _cuts(n, lambda a, k: clears(k * o, s + (a - 1) * o))
    neither = _cuts(n, off)

    N = 1 << n
    masks = np.arange(N, dtype=np.uint16)
    table = np.empty((N, N), dtype=np.uint16)
    step = max(1, TABLE_BLOCK_CELLS // N)
    for lo in range(0, N, step):
        A = masks[lo:lo + step, None]
        a = np.bitwise_count(A)
        AB = A & masks
        k = np.bitwise_count(AB)
        out = table[lo:lo + step]
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
    flat = np.flatnonzero(viol)
    if flat.size == 0:
        return None
    coords = np.unravel_index(flat[0], viol.shape)
    sets = tuple(int(arr[c]) for arr, c in zip(index_arrays, coords))
    bits = int(viol[coords])
    return sets + ((bits & -bits).bit_length() - 1,)


def interval_sets(n: int) -> tuple:
    """The structured family: the empty set and every index interval."""
    out = [0]
    for i in range(n):
        for j in range(i, n):
            out.append(_mask(range(i, j + 1)))
    return tuple(out)


# -- the laws, read from ops.AXIOM_DEFS ----------------------------------
# Each sweep below flags every antecedent A whose (B, C) block holds a
# violation, by a reduction that never visits the block, and then scans
# the first flagged block from the axiom's definition.

class _Powerset:
    """The powerset as an axiom's lattice and, through ``Rows``, its meet a & b."""

    def __init__(self, N: int):
        self.top, self.bottom = N - 1, 0

    def __getitem__(self, ab):
        return ab[0] & ab[1]


class _Arrow:
    """The arrow as a table for ``Rows``: X[a, b] = read(a, b), from the
    uint16 table or the scalar ``space.arrow``.  The (A, B) grid it was
    built with is answered with ``table`` itself, where a gather would
    copy the whole table (8 MB at 11 worlds) for each law that reads it."""

    def __init__(self, read, grid=(None, None), table=None):
        self.read, self.grid, self.table = read, grid, table

    def __getitem__(self, ab):
        if ab[0] is self.grid[0] and ab[1] is self.grid[1]:
            return self.table
        return self.read(*ab)


def _excess(ax: Axiom, N: int, T, v):
    """lhs & ~rhs of ax at v, T read through ``Rows``: nonzero exactly
    where lhs <= rhs fails, its lowest bit the lowest failing world."""
    L = _Powerset(N)
    lhs, rhs = AXIOM_DEFS[ax].eval(L, Rows(L), T, v)
    return lhs & ~rhs


def _first_block_witness(T: np.ndarray, flagged: np.ndarray, ax: Axiom):
    """(A, B, C, w) for the first flagged A, its (B, C) block scanned in
    lexicographic order from the definition of ax, or None if nothing is
    flagged."""
    hits = np.flatnonzero(flagged)
    if hits.size == 0:
        return None
    A = int(hits[0])
    N = len(T)
    cols = np.arange(N, dtype=np.uint16)
    step = max(1, (1 << 20) // N)   # rows of B per slice: ~2^20 cells at a time
    for lo in range(0, N, step):
        B = cols[lo:lo + step]
        found = _first_violation(_excess(ax, N, Rows(T), (A, B[:, None], cols)), B, cols)
        if found is not None:
            return (A,) + found
    raise InternalInconsistency(f"sweep flagged antecedent {A:#x} but its block holds")


def p4_witness(T: np.ndarray):
    """First P4 violation (A, B, C, w) of a (2^n, 2^n) uint16 table, or
    None.  P4 holds iff every row B -> T[A, B] is monotone, and a row is
    monotone iff it grows along every cover B < B | 1<<i: for world bit
    i the view (A, high bits, bit i, low bits) pairs each B without i
    with B | 1<<i."""
    N = len(T)
    flagged = np.zeros(N, dtype=bool)
    for i in range(N.bit_length() - 1):
        pairs = T.reshape(N, -1, 2, 1 << i)
        flagged |= (pairs[:, :, 0] & ~pairs[:, :, 1]).any(axis=(1, 2))
    return _first_block_witness(T, flagged, Axiom.P4)


def p5_witness(T: np.ndarray):
    """First P5 violation (A, B, C, w) of a (2^n, 2^n) uint16 table, or
    None.  With d = A & B and u = T[d, C], P5 fails at A iff some u in
    the range of a row d ⊆ A lies in Bad[A] = {u : T[A, u] ⊄ u}.  Row d's
    range is a packed bit row; a subset-sum (zeta) transform over the
    Boolean lattice ORs it into the row of every superset of d, which
    then meets Bad row by row."""
    N = len(T)
    cols = np.arange(N, dtype=np.uint16)
    reach = np.zeros((N, N), dtype=bool)
    reach[cols[:, None], T] = True
    reach = np.packbits(reach, axis=1)
    for i in range(N.bit_length() - 1):
        halves = reach.reshape(-1, 2, 1 << i, reach.shape[1])
        halves[:, 1] |= halves[:, 0]
    bad = np.packbits((T & ~cols) != 0, axis=1)
    return _first_block_witness(T, (reach & bad).any(axis=1), Axiom.P5)


def verify_axioms(
    space: ConfidenceSpace,
    samples=None,
    seed: int = 0,
    exhaustive=None,
    crosscheck: int = 512,
) -> ProbReport:
    """Check P1-P5, MP and NORM, each read from ``ops.AXIOM_DEFS``.

    P1 is exhaustive in A; P2, P3 and MP are exhaustive over all pairs.
    P4 and P5 are exact over all 2^3n triples by the sweeps
    ``p4_witness`` and ``p5_witness``, and a failing one reports the
    lexicographically first (A, B, C) with its lowest world.  The
    interval family is evaluated as a second route: a violation there
    that a sweep missed raises InternalInconsistency.  NORM evaluates
    the pinned reference witness on both routes and only searches the
    interval family when that instance unexpectedly passes.  Before any
    axiom runs, ``crosscheck`` cells of the table picked by ``seed`` are
    recomputed on the scalar route ``space.arrow``, which compares
    integer weights world by world and never reads the table's cut
    points; a mismatch raises InternalInconsistency.  ``samples`` and
    ``exhaustive`` are ignored; they keep the positional form
    ``verify_axioms(space, samples, seed, exhaustive)`` working.
    """
    n = space.world_count
    N = 1 << n
    T = arrow_table(space)

    if crosscheck:
        rng = np.random.default_rng(seed)
        picks = set(map(tuple, rng.integers(0, N, size=(crosscheck, 2)).tolist()))
        picks |= {(N - 1, N - 1), (0, 0), (0, N - 1), (N - 1, 0)}
        picks |= {(NORM_WITNESS[0] & (N - 1), NORM_WITNESS[1] & (N - 1))}
        for a, b in picks:
            if space.arrow(a, b) != int(T[a, b]):
                raise InternalInconsistency(
                    f"table and scalar routes disagree at ({a:#x},{b:#x})"
                )

    checks = {}
    masks = np.arange(N, dtype=np.uint16)
    grid = (masks[:, None], masks[None, :])
    arrow = Rows(_Arrow(lambda a, b: T[a, b], grid, T))

    # exhaustive over A, then over the (A, B) grid.  No name holds a
    # violation grid, so each N x N grid is freed before the next one.
    for ax, v in ((Axiom.P1, (masks,)), (Axiom.P2, grid), (Axiom.MP, grid), (Axiom.P3, grid)):
        wit = _first_violation(_excess(ax, N, arrow, v), *(masks,) * len(v))
        checks[ax] = ProbCheck(ax, wit is None, "exhaustive", N ** len(v), wit)

    # ternary: exact sweeps, with the interval family as the second route
    fam = np.array(interval_sets(n), dtype=np.uint16)
    fam3 = (fam[:, None, None], fam[None, :, None], fam[None, None, :])
    for ax, sweep in ((Axiom.P4, p4_witness), (Axiom.P5, p5_witness)):
        wit = sweep(T)
        if wit is None and _excess(ax, N, arrow, fam3).any():
            raise InternalInconsistency(f"{ax} sweep holds but the interval family fails")
        checks[ax] = ProbCheck(ax, wit is None, "exhaustive", N ** 3, wit)

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

    return ProbReport(checks, crosschecked=len(picks) if crosscheck else 0)
