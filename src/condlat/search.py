"""Backtracking search for operation tables with prescribed axiom profiles.

Given a finite lattice, a set of axioms that must hold and a set that
must fail, the engine first drops every instance that holds on every
table, so a forbidden axiom with no instance left settles the spec with
no node searched.  It then filters each cell's domain at the root with
the instances that read that one cell alone (P1, P2, MP, WM, SEMI, ID):
a required instance removes the values that violate it and is not
looked at again, and a forbidden axiom of such instances that no value
left can violate settles the spec as well (Zhang & Zhang's SEM and
McCune's Mace4 delete true ground instances and filter domains the same
way).  Finally it assigns table entries in row-major order with ascending
values, so the first witness is the lexicographically first table with
the profile.

Every instance is decided by one evaluation of the axiom's one
definition in ``ops.AXIOM_DEFS``, with the relation test ``ops._fails``,
on the table as it stands.  The meet table and the live table are
padded to the indices range(n + n*n): 0..n-1 are the elements, and
n + c is the code of the unassigned cell c = a * n + b, which that cell
holds until it is assigned.  A read indexed by a code gives the larger
of its two indices, so a code read anywhere (the nested sends of P5 and
FLAT, the double negation of INV, the negations inside NEGIMP) carries
through to a side, and the larger side, when it is a code, is that of
the largest unassigned cell the instance read.  During the search such
a blocked instance waits on that cell and is re-examined when it is
assigned: every cell it read before is assigned by then, as cells are
assigned in index order.  Required instances prune on violation;
forbidden axioms prune once all their instances are decided without a
single violation.

What the root reads depends on the lattice and the axiom alone, so it
is worked out once per lattice object and axiom, as a plan, and kept
for as long as that lattice object lives, as are the lattice's padded
tables.  A plan holds the instances that fail on some table, in product
order, each one's trigger (the last cell it reads at fixed indices: its
wait cell on the blank table), and for a single-cell axiom the values
each cell may take under it.  Whether an instance can fail is decided
by the waiting mechanism itself: on the blank table, and while it
waits, at each value of its wait cell in turn.  A spec's instances are
its plans concatenated in ``require + forbid`` order, and a forbid's
obligation is its plan's instance count.  A dropped instance never
prunes a required axiom and never violates a forbidden one, so dropping
it changes no witness and only lets a forbid's "no violation left"
prune fire sooner.

Every witness that comes back is re-verified against the exhaustive
checkers before it is returned; the incremental bookkeeping is never
the last word.

``minimal_witness`` walks an inventory of all lattices up to five
elements (one representative per isomorphism class) in size order and
returns the first lattice carrying a witness.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import permutations, product

from .errors import BudgetExhausted, InternalInconsistency, MissingBound, NotALattice, TooLarge
from .lattice import FiniteLattice, chain
from .ops import AXIOM_DEFS, BINARY_AXIOMS, Axiom, ConditionalOp, _fails, check_axioms

SEARCH_SIZE_LIMIT = 6
DEFAULT_NODE_BUDGET = 5_000_000

# axioms each of whose instances reads exactly one table cell, whose
# position depends on the instance alone
_SINGLE_CELL = frozenset((Axiom.P1, Axiom.P2, Axiom.MP, Axiom.WM, Axiom.SEMI, Axiom.ID))


def _normalize(axioms) -> tuple:
    # unary-operation axioms have no place in a binary-table search
    axioms = tuple(axioms)
    for ax in axioms:
        if ax not in BINARY_AXIOMS:
            raise ValueError(f"{ax} is not an operation-table axiom")
    return tuple(ax for ax in BINARY_AXIOMS if ax in axioms)


@dataclass(frozen=True)
class SearchSpec:
    lattice: FiniteLattice
    require: tuple = ()
    forbid: tuple = ()                 # each of these must FAIL on a witness
    fixed_entries: tuple = ()          # ((a, b, value), ...)
    node_budget: int = DEFAULT_NODE_BUDGET
    find_all: bool = False

    def __post_init__(self):
        object.__setattr__(self, "require", _normalize(self.require))
        object.__setattr__(self, "forbid", _normalize(self.forbid))
        clash = set(self.require) & set(self.forbid)
        if clash:
            raise ValueError(f"require and forbid overlap: {sorted(a.value for a in clash)}")
        if self.node_budget < 0:
            raise ValueError(f"node budget {self.node_budget} is negative")
        n = self.lattice.n
        if n > SEARCH_SIZE_LIMIT:
            raise TooLarge(f"search over {n}^{n * n} tables is out of range")
        fixed = tuple(tuple(e) for e in self.fixed_entries)
        pinned = {}
        for a, b, v in fixed:
            if not (0 <= a < n and 0 <= b < n and 0 <= v < n):
                raise ValueError(f"fixed entry {(a, b, v)} out of range")
            if pinned.setdefault((a, b), v) != v:
                raise ValueError(f"fixed entries give cell {(a, b)} "
                                 f"both {pinned[a, b]} and {v}")
        object.__setattr__(self, "fixed_entries", fixed)


@dataclass(frozen=True)
class SearchResult:
    witnesses: tuple           # ConditionalOp instances, re-verified
    nodes: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return bool(self.witnesses)


# per lattice: the padded meet table and the blank table (module
# docstring); weak keys, so they go when the lattice does
_PADDED = weakref.WeakKeyDictionary()


def _live(L: FiniteLattice):
    """(M, t): the padded meet table and a live table with every cell
    unassigned.  Both are indexed over range(n + n*n); index n + c codes
    the unassigned cell c = a * n + b, a read indexed by a code gives the
    larger of its two indices, and t[a][b] holds its cell's code until
    the cell is assigned.  Only t's n real rows are fresh lists."""
    n = L.n
    tables = _PADDED.get(L)
    if tables is None:
        wide = range(n + n * n)

        def padded(cell):
            return tuple(tuple(cell(x, y) if x < n and y < n else max(x, y)
                               for y in wide) for x in wide)

        tables = _PADDED[L] = (padded(lambda x, y: L.meet_table[x][y]),
                               padded(lambda x, y: n + x * n + y))
    M, blank = tables
    return M, [list(row) for row in blank[:n]] + list(blank[n:])


# per lattice, per axiom: the spec-independent part of the root (module
# docstring); weak keys, so a plan goes when its lattice does
_PLANS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class _Plan:
    args: tuple            # instance tuples that fail on some table, in
                           # product order
    triggers: tuple        # each instance's trigger cell on the empty table
    allowed: tuple | None  # _SINGLE_CELL: per cell, the values every instance
                           # triggered there holds at; None otherwise


def _plan(L: FiniteLattice, ax) -> _Plan:
    plans = _PLANS.get(L)
    if plans is None:
        plans = _PLANS[L] = {}
    plan = plans.get(ax)
    if plan is None:
        plan = plans[ax] = _build_plan(L, ax)
    return plan


def _holds_always(L: FiniteLattice, M, t, d, v) -> bool:
    """Whether instance v of definition d holds on every completion of the
    live table t: decided as it stands, or else at each value of the cell
    it waits on in turn, that cell restored after."""
    n = L.n
    lhs, rhs = d.eval(L, M, t, v)
    if lhs < n and rhs < n:
        return not _fails(M, lhs, rhs, d.relation)
    c = max(lhs, rhs) - n
    row, b = t[c // n], c % n
    held = True
    for x in range(n):
        row[b] = x
        if not _holds_always(L, M, t, d, v):
            held = False
            break
    row[b] = n + c
    return held


def _build_plan(L: FiniteLattice, ax) -> _Plan:
    n = L.n
    d = AXIOM_DEFS[ax]
    M, t = _live(L)
    args = tuple(v for v in product(range(n), repeat=d.arity)
                 if not _holds_always(L, M, t, d, v))
    triggers = tuple(max(d.eval(L, M, t, v)) - n for v in args)
    if ax not in _SINGLE_CELL:
        return _Plan(args, triggers, None)
    allowed = [set(range(n)) for _ in range(n * n)]
    for v, cell in zip(args, triggers):
        a, b = divmod(cell, n)
        for x in range(n):
            t[a][b] = x
            lhs, rhs = d.eval(L, M, t, v)
            if max(lhs, rhs) >= n:
                raise InternalInconsistency(f"{ax} at {v} is undecided with its "
                                            f"one cell {(a, b)} assigned")
            if _fails(M, lhs, rhs, d.relation):
                allowed[cell].discard(x)
        t[a][b] = n + cell
    return _Plan(args, triggers, tuple(map(frozenset, allowed)))


def _root(spec: SearchSpec):
    """The root pass (module docstring), read off the lattice's plans.

    Returns None when the root settles the spec (a forbid with no
    instance that can fail, or one whose single-cell instances no value
    left can violate), else (inst, bucket, domains): inst[i] = (axiom,
    definition, required, forbid_index, args), bucket[c] lists the
    instances whose trigger is c, in ``require + forbid`` order, and
    domains[c] the values cell c may take.
    """
    L = spec.lattice
    n = L.n
    domains = [tuple(range(n))] * (n * n)
    for a, b, v in spec.fixed_entries:
        domains[a * n + b] = (v,)
    inst = []
    bucket = [[] for _ in domains]
    for ax in spec.require + spec.forbid:
        plan = _plan(L, ax)
        required = ax in spec.require
        if not (required or plan.args):
            # a forbid none of whose instances can fail on any table
            return None
        if plan.allowed is not None:
            if required:
                domains = [tuple(x for x in dom if x in ok)
                           for dom, ok in zip(domains, plan.allowed)]
                if not all(domains):
                    return None
                continue
            # every require comes first, so the domains are final here
            if all(x in ok for dom, ok in zip(domains, plan.allowed) for x in dom):
                return None
        d = AXIOM_DEFS[ax]
        fidx = -1 if required else spec.forbid.index(ax)
        for v, c in zip(plan.args, plan.triggers):
            bucket[c].append(len(inst))
            inst.append((ax, d, required, fidx, v))
    return inst, bucket, domains


def find_witness(spec: SearchSpec) -> SearchResult:
    """Depth-first search per the module conventions.

    Raises BudgetExhausted with the partial result attached when the
    node budget runs out before the space is settled.
    """
    root = _root(spec)
    if root is None:
        return SearchResult((), 0, True)
    inst, bucket, domains = root
    L = spec.lattice
    n = L.n
    ncells = n * n
    M, t = _live(L)

    pending = [[] for _ in range(ncells)]
    nforbid = len(spec.forbid)
    remaining = [0] * nforbid
    violated = [0] * nforbid
    for e in inst:
        if e[3] >= 0:
            remaining[e[3]] += 1
    trail = []          # (0, cell) pending pop | (1, f) unviolate | (2, f) undecide
    found = []
    nodes = 0

    def undo(mark):
        while len(trail) > mark:
            kind, x = trail.pop()
            if kind == 0:
                pending[x].pop()
            elif kind == 1:
                violated[x] -= 1
            else:
                remaining[x] += 1

    def settle(i) -> bool:
        """Evaluate instance i once; False prunes the branch.  A blocked
        instance waits on cell c, the largest unassigned cell it read,
        whose code n + c is its larger side."""
        _ax, d, required, f, v = inst[i]
        lhs, rhs = d.eval(L, M, t, v)
        if lhs >= n or rhs >= n:
            c = max(lhs, rhs) - n
            pending[c].append(i)
            trail.append((0, c))
            return True
        r = not _fails(M, lhs, rhs, d.relation)
        if required:
            return r
        remaining[f] -= 1
        trail.append((2, f))
        if not r:
            violated[f] += 1
            trail.append((1, f))
            return True
        return violated[f] > 0 or remaining[f] > 0

    def dfs(cell) -> bool:
        nonlocal nodes
        if cell == ncells:
            for f in range(nforbid):
                # the decision-time prune must have settled every forbid
                if remaining[f] or not violated[f]:
                    raise InternalInconsistency("forbid bookkeeping out of sync")
            found.append(tuple(tuple(row[:n]) for row in t[:n]))
            return not spec.find_all
        row, b = t[cell // n], cell % n
        for v in domains[cell]:
            nodes += 1
            if nodes > spec.node_budget:
                raise BudgetExhausted(
                    f"node budget {spec.node_budget} exhausted",
                    partial=SearchResult(_verified(spec, found), nodes, False),
                )
            row[b] = v
            mark = len(trail)
            ok = True
            for i in bucket[cell]:
                if not settle(i):
                    ok = False
                    break
            if ok:
                for i in pending[cell]:
                    if not settle(i):
                        ok = False
                        break
            if ok and dfs(cell + 1):
                return True
            undo(mark)
        row[b] = n + cell
        return False

    stopped = dfs(0)
    exhausted = not stopped
    return SearchResult(_verified(spec, found), nodes, exhausted)


def _verified(spec: SearchSpec, tables) -> tuple:
    """Independent exhaustive re-check of every witness; the search's
    own incremental state is not trusted."""
    out = []
    for rows in tables:
        op = ConditionalOp(spec.lattice, rows)
        rep = check_axioms(op, spec.require + spec.forbid)
        for ax in spec.require:
            if not rep[ax].holds:
                raise InternalInconsistency(f"witness fails required {ax}")
        for ax in spec.forbid:
            if rep[ax].holds:
                raise InternalInconsistency(f"witness satisfies forbidden {ax}")
        out.append(op)
    return tuple(out)


# -- lattice inventory ----------------------------------------------------

def enumerate_lattices(n: int, names=None) -> tuple:
    """All lattices on n elements up to isomorphism, smallest first in
    canonical order.

    Elements are forced into a linear extension (a <= b implies index(a)
    <= index(b)), so candidate orders are the transitive reflexive
    upper-triangular relations; isomorphs are discarded by keying on the
    minimum relation matrix over all permutations.
    """
    if n < 1:
        raise ValueError("need at least one element")
    if n > SEARCH_SIZE_LIMIT:
        raise TooLarge(f"2^{n * (n - 1) // 2} candidate orders is past the guard")
    if names is None:
        names = tuple(f"e{i}" for i in range(n))
    elif len(names) != n:
        raise ValueError(f"{len(names)} names for {n} elements")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    out = []
    for pick in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if pick >> k & 1:
                rows[i] |= 1 << j
        # transitive closure, then reject candidates the closure changed
        closed = list(rows)
        for k in range(n):
            kb = 1 << k
            for a in range(n):
                if closed[a] & kb:
                    closed[a] |= closed[k]
        if closed != rows:
            continue
        try:
            L = FiniteLattice(names, rows)
        except (MissingBound, NotALattice):
            continue
        key = min(
            tuple(
                tuple(rows[p[a]] >> p[b] & 1 for b in range(n)) for a in range(n)
            )
            for p in permutations(range(n))
        )
        if key in seen:
            continue
        seen.add(key)
        out.append((key, L))
    out.sort(key=lambda kl: kl[0])
    return tuple(L for _, L in out)


def _inventory() -> tuple:
    """(label, lattice) for every isomorphism class up to 5 elements.

    Pinned shapes; tests cross-check this list against
    ``enumerate_lattices``.
    """
    def cov(label, names, pairs):
        return (label, FiniteLattice.from_cover(names, pairs))

    return (
        ("point", chain(1)),
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain4", chain(4)),
        cov("diamond", ("0", "a", "b", "1"), [(0, 1), (0, 2), (1, 3), (2, 3)]),
        ("chain5", chain(5)),
        cov("diamond+top", ("0", "a", "b", "c", "1"),
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
        cov("diamond+bottom", ("0", "a", "b", "c", "1"),
            [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
        cov("pentagon", ("0", "a", "b", "c", "1"),
            [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]),
        cov("triple-antichain", ("0", "a", "b", "c", "1"),
            [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    )


INVENTORY = _inventory()


@dataclass(frozen=True)
class MinimalWitness:
    op: ConditionalOp | None       # None when the whole inventory is exhausted
    label: str | None
    trail: tuple                   # (label, nodes, exhausted) per lattice tried

    @property
    def found(self) -> bool:
        return self.op is not None


def minimal_witness(require, forbid, node_budget: int = DEFAULT_NODE_BUDGET) -> MinimalWitness:
    """First witness over the inventory in size order; the lattices in
    the trail were exhausted without one."""
    trail = []
    for label, L in INVENTORY:
        spec = SearchSpec(L, require=tuple(require), forbid=tuple(forbid),
                          node_budget=node_budget)
        res = find_witness(spec)
        trail.append((label, res.nodes, res.exhausted))
        if res.found:
            return MinimalWitness(res.witnesses[0], label, tuple(trail))
    return MinimalWitness(None, None, tuple(trail))
