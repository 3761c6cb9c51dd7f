"""Backtracking search for operation tables with prescribed axiom profiles.

Given a finite lattice, a set of axioms that must hold and a set that
must fail, the engine first filters each cell's domain at the root with
the instances that read that one cell alone (P1, P2, MP, WM, SEMI, ID):
a required instance removes the values that violate it and is not
looked at again, and a forbidden axiom of such instances that no value
left can violate settles the spec with no node searched (Zhang & Zhang's
SEM and McCune's Mace4 filter domains the same way).  It then assigns
table entries in row-major order with ascending values, so the first
witness is the lexicographically first table with the profile, and
checks every other axiom instance the moment its last cell is filled.
Instances whose reads depend on earlier table values
(the nested sends of P5 and FLAT, the double negation of INV, the
negations inside NEGIMP) wait on the exact cell that blocked them and
are re-examined when it is assigned.  Required instances prune on
violation; forbidden axioms prune once all their instances are decided
without a single violation.

Every witness that comes back is re-verified against the exhaustive
checkers before it is returned; the incremental bookkeeping is never
the last word.

``minimal_witness`` walks an inventory of all lattices up to five
elements (one representative per isomorphism class) in size order and
returns the first lattice carrying a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import BudgetExhausted, InternalInconsistency, TooLarge
from .lattice import FiniteLattice, chain
from .ops import AXIOM_DEFS, Axiom, ConditionalOp, check_axioms

SEARCH_SIZE_LIMIT = 6
DEFAULT_NODE_BUDGET = 5_000_000

# unary-operation axioms have no place in a binary-table search
_SEARCHABLE = tuple(ax for ax in Axiom if ax not in (Axiom.PC_ANTI, Axiom.PC_TOP))
_ORDER = {ax: i for i, ax in enumerate(Axiom)}
# axioms each of whose instances reads exactly one table cell, whose
# position depends on the instance alone
_SINGLE_CELL = frozenset((Axiom.P1, Axiom.P2, Axiom.MP, Axiom.WM, Axiom.SEMI, Axiom.ID))


def _normalize(axioms) -> tuple:
    out = tuple(sorted(set(axioms), key=_ORDER.__getitem__))
    for ax in out:
        if ax not in _SEARCHABLE:
            raise ValueError(f"{ax} is not an operation-table axiom")
    return out


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
        n = self.lattice.n
        if n > SEARCH_SIZE_LIMIT:
            raise TooLarge(f"search over {n}^{n * n} tables is out of range")
        fixed = tuple(tuple(e) for e in self.fixed_entries)
        for a, b, v in fixed:
            if not (0 <= a < n and 0 <= b < n and 0 <= v < n):
                raise ValueError(f"fixed entry {(a, b, v)} out of range")
        object.__setattr__(self, "fixed_entries", fixed)


@dataclass(frozen=True)
class SearchResult:
    witnesses: tuple           # ConditionalOp instances, re-verified
    nodes: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return bool(self.witnesses)


def _instances(spec: SearchSpec):
    """All axiom instances with their static read cells.

    Returns (inst, static_bucket) where inst[i] = (axiom, required,
    forbid_index, args) and static_bucket[c] lists the instances whose
    last statically known cell is c.
    """
    L = spec.lattice
    n, M = L.n, L.meet_table
    bot, top = L.bottom, L.top
    inst = []
    bucket = [[] for _ in range(n * n)]
    forbid_index = {ax: i for i, ax in enumerate(spec.forbid)}

    def cells_of(ax, a, b, c):
        if ax is Axiom.P1:
            return ((top, a),)
        if ax in (Axiom.P2, Axiom.MP, Axiom.WM):
            return ((a, b),)
        if ax is Axiom.NEGIMP:
            return ((a, b), (b, bot))
        if ax is Axiom.P3:
            return ((a, b), (a, M[a][b]))
        if ax is Axiom.P4:
            return ((a, M[b][c]), (a, b))
        if ax in (Axiom.P5, Axiom.FLAT):
            return ((M[a][b], c),)
        if ax in (Axiom.SEMI, Axiom.INV):
            return ((a, bot),)
        if ax is Axiom.ID:
            return ((a, a),)
        if ax is Axiom.NORM:
            return ((a, b), (a, c), (a, M[b][c]))
        raise AssertionError(ax)

    for ax in spec.require + spec.forbid:
        arity = AXIOM_DEFS[ax].arity
        required = ax in spec.require
        fidx = forbid_index.get(ax, -1)
        ranges = [range(n)] * arity + [range(1)] * (3 - arity)
        for a in ranges[0]:
            for b in ranges[1]:
                for c in ranges[2]:
                    i = len(inst)
                    inst.append((ax, required, fidx, a, b, c))
                    trigger = max(x * n + y for x, y in cells_of(ax, a, b, c))
                    bucket[trigger].append(i)
    return inst, bucket


def _evaluate(entry, t, n, M, up, bot, top):
    """1 holds, 0 violated, -(cell+1) blocked on an unassigned cell."""
    ax, _req, _f, a, b, c = entry
    if ax is Axiom.P1:
        return up[t[top * n + a]] >> a & 1
    if ax is Axiom.P2:
        return up[M[a][b]] >> t[a * n + b] & 1
    if ax is Axiom.P3:
        return up[t[a * n + b]] >> t[a * n + M[a][b]] & 1
    if ax is Axiom.P4:
        return up[t[a * n + M[b][c]]] >> t[a * n + b] & 1
    if ax is Axiom.P5 or ax is Axiom.FLAT:
        u = t[M[a][b] * n + c]
        cell = a * n + u
        x = t[cell]
        if x < 0:
            return -cell - 1
        return x == u if ax is Axiom.FLAT else up[x] >> u & 1
    if ax is Axiom.MP:
        return up[M[a][t[a * n + b]]] >> b & 1
    if ax is Axiom.WM:
        return up[b] >> t[a * n + b] & 1
    if ax is Axiom.SEMI:
        return M[a][t[a * n + bot]] == bot
    if ax is Axiom.INV:
        cell = t[a * n + bot] * n + bot
        y = t[cell]
        if y < 0:
            return -cell - 1
        return y == a
    if ax is Axiom.ID:
        return t[a * n + a] == top
    if ax is Axiom.NORM:
        lhs = M[t[a * n + b]][t[a * n + c]]
        return up[lhs] >> t[a * n + M[b][c]] & 1
    if ax is Axiom.NEGIMP:
        cell = t[a * n + b] * n + bot
        nx = t[cell]
        if nx < 0:
            return -cell - 1
        cell = a * n + t[b * n + bot]
        y = t[cell]
        if y < 0:
            return -cell - 1
        return up[nx] >> y & 1
    raise AssertionError(ax)


def find_witness(spec: SearchSpec) -> SearchResult:
    """Depth-first search per the module conventions.

    Raises BudgetExhausted with the partial result attached when the
    node budget runs out before the space is settled.
    """
    L = spec.lattice
    n = L.n
    ncells = n * n
    M = L.meet_table
    up = tuple(L.up_mask(a) for a in range(n))
    bot, top = L.bottom, L.top

    inst, bucket = _instances(spec)
    domains = [tuple(range(n))] * ncells
    for a, b, v in spec.fixed_entries:
        domains[a * n + b] = (v,)

    # root pass (module docstring); a single-cell instance reads nothing
    # of the probe table but its own cell
    probe = [0] * ncells

    def holds(i, cell, v):
        probe[cell] = v
        return _evaluate(inst[i], probe, n, M, up, bot, top)

    for cell in range(ncells):
        filters = {i for i in bucket[cell] if inst[i][1] and inst[i][0] in _SINGLE_CELL}
        if filters:
            domains[cell] = tuple(v for v in domains[cell]
                                  if all(holds(i, cell, v) for i in filters))
            if not domains[cell]:
                return SearchResult((), 0, True)
            bucket[cell] = [i for i in bucket[cell] if i not in filters]
    violable = {
        inst[i][0]
        for cell in range(ncells) for i in bucket[cell]
        if inst[i][0] in _SINGLE_CELL
        and any(not holds(i, cell, v) for v in domains[cell])
    }
    if any(ax in _SINGLE_CELL and ax not in violable for ax in spec.forbid):
        return SearchResult((), 0, True)

    t = [-1] * ncells
    pending = [[] for _ in range(ncells)]
    nforbid = len(spec.forbid)
    remaining = [0] * nforbid
    violated = [0] * nforbid
    for e in inst:
        if e[2] >= 0:
            remaining[e[2]] += 1
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
        """Evaluate instance i; False prunes the branch."""
        e = inst[i]
        r = _evaluate(e, t, n, M, up, bot, top)
        if r < 0:
            pending[-r - 1].append(i)
            trail.append((0, -r - 1))
            return True
        if e[1]:                      # required
            return bool(r)
        f = e[2]
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
            found.append(tuple(t))
            return not spec.find_all
        for v in domains[cell]:
            nodes += 1
            if nodes > spec.node_budget:
                raise BudgetExhausted(
                    f"node budget {spec.node_budget} exhausted",
                    partial=SearchResult(_verified(spec, found), nodes, False),
                )
            t[cell] = v
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
        t[cell] = -1
        return False

    stopped = dfs(0)
    exhausted = not stopped
    return SearchResult(_verified(spec, found), nodes, exhausted)


def _verified(spec: SearchSpec, tables) -> tuple:
    """Independent exhaustive re-check of every witness; the search's
    own incremental state is not trusted."""
    out = []
    for rows in tables:
        n = spec.lattice.n
        op = ConditionalOp(spec.lattice, tuple(tuple(rows[a * n + b] for b in range(n)) for a in range(n)))
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
        except Exception:
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
