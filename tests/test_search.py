import gc
import weakref
from itertools import permutations, product
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from condlat import search
from condlat.errors import BudgetExhausted, TooLarge
from condlat.lattice import FiniteLattice, boolean_algebra, chain
from condlat.ops import (
    AXIOM_DEFS,
    Axiom,
    BINARY_AXIOMS,
    PRECONDITIONAL_AXIOMS,
    _fails,
    check_axioms,
)
from condlat.search import (
    INVENTORY,
    SearchSpec,
    enumerate_lattices,
    find_witness,
    minimal_witness,
)

from conftest import _product_scan, _readme_axioms, find_isomorphism

P = PRECONDITIONAL_AXIOMS


def profiles(lattice, axes):
    """(rows, mask) for every table in lexicographic order; bit j of mask
    says whether axes[j] holds by the README definitions, which the search
    does not share."""
    n = lattice.n
    out = []
    for cells in product(range(n), repeat=n * n):
        rows = tuple(cells[i * n:(i + 1) * n] for i in range(n))
        readme = _readme_axioms(lattice, rows)
        out.append((rows, sum(_product_scan(lattice, *readme[ax])[0] << j
                              for j, ax in enumerate(axes))))
    return out


def brute_force(lattice, require, forbid):
    """Oracle: enumerate every table and filter by full axiom checks."""
    want = (1 << len(require)) - 1     # every required bit, no forbidden one
    return [rows for rows, m in profiles(lattice, tuple(require) + tuple(forbid))
            if m == want]


def splits(axes):
    """Every (require, forbid, require mask, forbid mask) that leaves each
    axiom free, required or forbidden."""
    for split in product((0, 1, 2), repeat=len(axes)):
        yield (tuple(ax for ax, k in zip(axes, split) if k == 1),
               tuple(ax for ax, k in zip(axes, split) if k == 2),
               sum(1 << j for j, k in enumerate(split) if k == 1),
               sum(1 << j for j, k in enumerate(split) if k == 2))


def test_spec_validation():
    c2 = chain(2)
    with pytest.raises(ValueError):
        SearchSpec(c2, require=(Axiom.P1,), forbid=(Axiom.P1,))
    with pytest.raises(ValueError):
        SearchSpec(c2, require=(Axiom.PC_ANTI,))
    with pytest.raises(TooLarge):
        SearchSpec(chain(7))
    with pytest.raises(ValueError):
        SearchSpec(c2, fixed_entries=((0, 0, 5),))


def test_unconstrained_search_finds_all_tables():
    c2 = chain(2)
    res = find_witness(SearchSpec(c2, find_all=True))
    assert len(res.witnesses) == 16
    assert res.exhausted


def test_forbid_p1_unique_witness():
    res = find_witness(SearchSpec(chain(2), require=P[1:], forbid=(P[0],),
                                  find_all=True))
    assert [op.table for op in res.witnesses] == [((1, 1), (1, 1))]
    assert res.exhausted


def test_require_core_and_mp_forbid_wm_unique_witness():
    res = find_witness(SearchSpec(chain(2), require=P + (Axiom.MP,),
                                  forbid=(Axiom.WM,), find_all=True))
    assert [op.table for op in res.witnesses] == [((0, 0), (0, 1))]


def test_first_witness_stops_early():
    res = find_witness(SearchSpec(chain(2)))
    assert res.found and len(res.witnesses) == 1
    assert not res.exhausted or res.nodes > 0


def test_fixed_entries_are_honored():
    res = find_witness(SearchSpec(chain(2), require=P,
                                  fixed_entries=((0, 0, 1),), find_all=True))
    assert res.witnesses
    for op in res.witnesses:
        assert op.table[0][0] == 1
        assert check_axioms(op, P).ok


def test_fixed_entry_that_violates_a_required_axiom_empties_its_domain():
    # WM wants 1 <= (2 -> 1), so pinning that cell to 0 leaves no value
    spec = SearchSpec(chain(3), require=(Axiom.WM,), fixed_entries=((2, 1, 0),),
                      find_all=True)
    res = find_witness(spec)
    assert res.witnesses == () and res.exhausted and res.nodes == 0


@pytest.mark.parametrize("value,settled", [(0, False), (1, True)])
def test_fixed_entry_decides_whether_a_forbid_settles_at_the_root(value, settled):
    # WM forces 1 -> 1 = 1, so on the 2-chain ID can fail only at 0 -> 0:
    # pinned to 0 the forbid is violable, pinned to 1 it is not
    c2 = chain(2)
    res = find_witness(SearchSpec(c2, require=(Axiom.WM,), forbid=(Axiom.ID,),
                                  fixed_entries=((0, 0, value),), find_all=True))
    want = [rows for rows in brute_force(c2, (Axiom.WM,), (Axiom.ID,))
            if rows[0][0] == value]
    assert [op.table for op in res.witnesses] == want
    assert bool(want) is not settled
    assert res.exhausted and (res.nodes == 0) is settled


def test_conflicting_fixed_entries_are_refused():
    c2 = chain(2)
    with pytest.raises(ValueError, match=r"cell \(0, 0\) both 0 and 1"):
        SearchSpec(c2, fixed_entries=((0, 0, 0), (0, 0, 1)), find_all=True)
    # a repeated identical entry is one pin
    res = find_witness(SearchSpec(c2, fixed_entries=((0, 0, 1), (0, 0, 1)),
                                  find_all=True))
    assert [op.table for op in res.witnesses] == [
        rows for rows, _m in profiles(c2, ()) if rows[0][0] == 1]


def test_budget_exhaustion_carries_partial_result():
    c3 = chain(3)
    with pytest.raises(BudgetExhausted) as info:
        find_witness(SearchSpec(c3, find_all=True, node_budget=50))
    partial = info.value.partial
    assert partial is not None
    assert not partial.exhausted
    assert partial.witnesses  # what was found before the cutoff survives
    for op in partial.witnesses:
        assert len(op.table) == 3


def test_negative_budget_is_refused_and_zero_runs_the_root_pass_only():
    c2 = chain(2)
    with pytest.raises(ValueError, match="node budget -5 is negative"):
        SearchSpec(c2, require=(Axiom.MP,), node_budget=-5)
    # MP and WM force the top row to the identity, so P1 cannot fail
    res = find_witness(SearchSpec(c2, require=(Axiom.MP, Axiom.WM),
                                  forbid=(Axiom.P1,), node_budget=0))
    assert (res.found, res.nodes, res.exhausted) == (False, 0, True)
    with pytest.raises(BudgetExhausted) as info:
        find_witness(SearchSpec(c2, require=(Axiom.MP,), node_budget=0))
    assert (info.value.partial.witnesses, info.value.partial.nodes) == ((), 1)


@pytest.mark.parametrize(
    "require,forbid",
    [
        (P, ()),
        (P, (Axiom.MP,)),
        (P + (Axiom.MP,), (Axiom.WM,)),
        ((), (Axiom.P1, Axiom.P2)),
        ((Axiom.ID, Axiom.NORM), (Axiom.FLAT,)),
        ((Axiom.NEGIMP,), (Axiom.INV,)),
    ],
    ids=["core", "core-no-mp", "mp-no-wm", "neither-p1-p2", "id-norm-no-flat",
         "negimp-no-inv"],
)
def test_search_matches_brute_force_on_2chain(require, forbid):
    c2 = chain(2)
    res = find_witness(SearchSpec(c2, require=require, forbid=forbid,
                                  find_all=True))
    assert sorted(op.table for op in res.witnesses) == brute_force(
        c2, require, forbid
    )
    assert res.exhausted


def test_search_matches_brute_force_on_3chain_spot():
    c3 = chain(3)
    res = find_witness(SearchSpec(c3, require=P + (Axiom.MP, Axiom.WM),
                                  find_all=True))
    assert sorted(op.table for op in res.witnesses) == brute_force(
        c3, P + (Axiom.MP, Axiom.WM), ()
    )


ROOT_AXES = (Axiom.P1, Axiom.P2, Axiom.MP, Axiom.WM, Axiom.SEMI, Axiom.ID, Axiom.P5)


def test_every_split_of_single_cell_axioms_matches_brute_force_on_2chain():
    # the six single-cell axioms, plus P5 whose nested reads wait on the table
    c2 = chain(2)
    tables = profiles(c2, ROOT_AXES)
    for require, forbid, req, forb in splits(ROOT_AXES):
        res = find_witness(SearchSpec(c2, require=require, forbid=forbid,
                                      find_all=True))
        want = [rows for rows, m in tables if m & req == req and not m & forb]
        assert [op.table for op in res.witnesses] == want, (require, forbid)
        assert res.exhausted


@pytest.mark.parametrize("lattice", [chain(2), chain(3)], ids=["chain2", "chain3"])
def test_each_axiom_required_or_forbidden_alone_matches_brute_force(lattice):
    tables = profiles(lattice, BINARY_AXIOMS)
    for j, ax in enumerate(BINARY_AXIOMS):
        for require, forbid, holds in (((ax,), (), 1), ((), (ax,), 0)):
            res = find_witness(SearchSpec(lattice, require=require, forbid=forbid,
                                          find_all=True))
            want = [rows for rows, m in tables if m >> j & 1 == holds]
            assert [op.table for op in res.witnesses] == want, (require, forbid)
            assert res.exhausted


def test_every_require_forbid_pair_matches_brute_force_on_2chain():
    c2 = chain(2)
    tables = profiles(c2, BINARY_AXIOMS)
    for (i, x), (j, y) in permutations(enumerate(BINARY_AXIOMS), 2):
        res = find_witness(SearchSpec(c2, require=(x,), forbid=(y,), find_all=True))
        want = [rows for rows, m in tables if m >> i & 1 and not m >> j & 1]
        assert [op.table for op in res.witnesses] == want, (x, y)
        assert res.exhausted


# The partial-table adapter: a second reader of partial tables that shares
# no code with the search's coded one, kept as the oracle for its wait
# cells, its plan triggers and the axioms whose plans filter domains.

class _PartialRow:
    """Row a of a partial table as the adapter reads it: an unassigned
    cell is listed in ``cells`` and read as the sentinel n, and so is a
    read indexed by the sentinel."""

    __slots__ = ("t", "a", "cells")

    def __init__(self, t, a, cells):
        self.t, self.a, self.cells = t, a, cells

    def __getitem__(self, b):
        n = len(self.t)
        if b == n:
            return n
        x = self.t[self.a][b]
        if x is None:
            self.cells.append(self.a * n + b)
            return n
        return x


def _adapter(L: FiniteLattice, t):
    """The partial-table adapter over t (n row lists, None where
    unassigned): reads(d, v) evaluates definition d at instance v and
    returns the unassigned cells (a * n + b) it read, in reading order.

    The sentinel n indexes an (n+1)-th row and column of n added to the
    meet table and to t, so it propagates through every read it indexes.
    """
    n = L.n
    pad = ((n,) * (n + 1),)
    M = tuple(row + (n,) for row in L.meet_table) + pad
    cells = []
    T = tuple(_PartialRow(t, a, cells) for a in range(n)) + pad

    def reads(d, v):
        cells.clear()
        d.eval(L, M, T, v)
        return list(cells)

    return reads


def _reads_one_cell_alone(L, d, v):
    """Instance v of definition d reads exactly one cell on the empty table
    and, with that cell alone assigned to any value, waits on nothing."""
    n = L.n
    t = [[None] * n for _ in range(n)]
    reads = _adapter(L, t)
    cells = set(reads(d, v))
    if len(cells) != 1:
        return False
    a, b = divmod(cells.pop(), n)
    for x in range(n):
        t[a][b] = x
        if reads(d, v):
            return False
    return True


def _single_cell(L, ax):
    """Whether ax keeps an instance on L and every instance it keeps reads
    one cell alone, by the adapter: then its plan filters domains."""
    kept = _violable(L, ax)
    return bool(kept) and all(_reads_one_cell_alone(L, AXIOM_DEFS[ax], v) for v in kept)


def test_single_cell_axioms_are_those_the_adapter_finds():
    lattices = INVENTORY + tuple((f"n6-{i}", L) for i, L in enumerate(enumerate_lattices(6)))
    found = {}
    for label, L in lattices:
        single = tuple(ax for ax in BINARY_AXIOMS if _single_cell(L, ax))
        assert single == tuple(ax for ax in BINARY_AXIOMS
                               if search._plan(L, ax).allowed is not None), label
        found.setdefault(single, []).append(label)
    # the point keeps no instance at all; everywhere else, the same six
    six = (Axiom.P1, Axiom.P2, Axiom.MP, Axiom.WM, Axiom.SEMI, Axiom.ID)
    assert found == {(): ["point"], six: [label for label, _L in lattices[1:]]}


def test_coded_reader_agrees_with_the_adapter_on_partial_tables():
    # blocked exactly when the adapter lists a cell, waiting on the
    # largest one; decided alike on the table completed either way
    rng = Random("coded-reader")
    blocked = decided = 0
    for _label, L in INVENTORY:
        n = L.n
        M, t = search._live(L)
        for density in (0.2, 0.4, 0.6, 0.8, 1.0) * 2:
            partial = [[rng.randrange(n) if rng.random() < density else None
                        for _b in range(n)] for _a in range(n)]
            for a, b in product(range(n), repeat=2):
                x = partial[a][b]
                t[a][b] = n + a * n + b if x is None else x
            reads = _adapter(L, partial)
            completions = [[[fill if x is None else x for x in row] for row in partial]
                           for fill in (0, n - 1)]
            for ax in BINARY_AXIOMS:
                d = AXIOM_DEFS[ax]
                for v in product(range(n), repeat=d.arity):
                    lhs, rhs = d.eval(L, M, t, v)
                    cells = reads(d, v)
                    if cells:
                        assert max(lhs, rhs) == n + max(cells), (ax, v, partial)
                        blocked += 1
                        continue
                    assert lhs < n and rhs < n, (ax, v, partial)
                    for full in completions:
                        assert d.eval(L, L.meet_table, full, v) == (lhs, rhs)
                    decided += 1
    assert blocked and decided


class _EveryTable:
    """All n^(n*n) tables on n elements at once: ``T[x][y]`` is the vector
    of every table's entry at (x, y), where x and y may be such vectors."""

    def __init__(self, n):
        self.cells = np.array(list(product(range(n), repeat=n * n))).reshape(-1, n, n)
        self.k = np.arange(len(self.cells))

    def __getitem__(self, x):
        return _EveryRow(self, x)


class _EveryRow:
    def __init__(self, every, x):
        self.every, self.x = every, x

    def __getitem__(self, y):
        return self.every.cells[self.every.k, self.x, y]


def _violable_by_brute_force(L):
    """(table count, {axiom: the instances that fail on at least one table}),
    every table of L decided at once by the README definitions."""
    T = _EveryTable(L.n)
    MA = np.array(L.meet_table)
    readme = _readme_axioms(
        SimpleNamespace(top=L.top, bottom=L.bottom, meet=lambda a, b: MA[a, b]), T)
    violable = {}
    for ax, (arity, relation, law) in readme.items():
        def fails(v):
            lhs, rhs = law(*v)
            return np.any(lhs != rhs if relation == "eq" else MA[lhs, rhs] != lhs)

        violable[ax] = tuple(v for v in product(range(L.n), repeat=arity) if fails(v))
    return len(T.cells), violable


def _fails_somewhere(L, d, v, t, reads):
    """Whether instance v of definition d fails on some completion of the
    partial table t (None where unassigned), read through the adapter
    ``reads`` over t: every value of the first unassigned cell it reads
    is tried in turn."""
    cells = reads(d, v)
    if not cells:
        return _fails(L.meet_table, *d.eval(L, L.meet_table, t, v), d.relation)
    a, b = divmod(cells[0], L.n)
    found = False
    for x in range(L.n):
        t[a][b] = x
        if _fails_somewhere(L, d, v, t, reads):
            found = True
            break
    t[a][b] = None
    return found


# per lattice, per axiom: the instances _fails_somewhere keeps
_VIOLABLE = weakref.WeakKeyDictionary()


def _violable(L, ax):
    """The instances of ax that fail on some table of L, by the adapter."""
    known = _VIOLABLE.get(L)
    if known is None:
        known = _VIOLABLE[L] = {}
    if ax not in known:
        n, d = L.n, AXIOM_DEFS[ax]
        t = [[None] * n for _ in range(n)]
        reads = _adapter(L, t)
        known[ax] = tuple(v for v in product(range(n), repeat=d.arity)
                          if _fails_somewhere(L, d, v, t, reads))
    return known[ax]


@pytest.mark.parametrize("n,tables", [(1, 1), (2, 16), (3, 19_683)])
def test_plans_keep_the_instances_that_fail_on_some_table(n, tables):
    # an instance is dropped exactly when it holds on every table, which
    # the brute force over all tables decides apart from the search
    L = chain(n)
    count, violable = _violable_by_brute_force(L)
    assert count == tables
    for ax in BINARY_AXIOMS:
        assert search._plan(L, ax).args == violable[ax], ax
        assert _violable(L, ax) == violable[ax], ax


def test_kept_instances_on_the_3chain_are_pinned():
    # (kept, all) per axiom; on a chain b ∧ c is b or c, so NORM's right
    # side is one of the two arrows its left side meets and cannot fail
    c3 = chain(3)
    kept = {ax.value: (len(search._plan(c3, ax).args), 3 ** AXIOM_DEFS[ax].arity)
            for ax in BINARY_AXIOMS}
    assert kept == {
        "P1": (2, 3), "P2": (4, 9), "P3": (3, 9), "P4": (9, 27), "P5": (27, 27),
        "MP": (3, 9), "WM": (6, 9), "SEMI": (2, 3), "INV": (3, 3), "ID": (3, 3),
        "NORM": (0, 27), "NEGIMP": (9, 9), "FLAT": (27, 27),
    }
    assert all(search._plan(chain(n), Axiom.NORM).args == () for n in range(1, 7))


def _oracle_instances(spec, reads):
    """Every instance of every requested axiom that fails on some table,
    read through the adapter ``reads`` on the empty table for its
    trigger: (inst, bucket) as ``search._root`` gives them before the
    root filter."""
    L = spec.lattice
    n = L.n
    inst = []
    bucket = [[] for _ in range(n * n)]
    for ax in spec.require + spec.forbid:
        d = AXIOM_DEFS[ax]
        required = ax in spec.require
        fidx = -1 if required else spec.forbid.index(ax)
        for v in _violable(L, ax):
            bucket[max(reads(d, v))].append(len(inst))
            inst.append((ax, d, required, fidx, v))
    return inst, bucket


def _oracle_root(spec):
    """The root pass worked out for one spec alone, as the search did before
    its per-lattice plans: ``_oracle_instances``, settled when a forbidden
    axiom has none, then every single-cell instance decided at every
    value of its cell.  Same return as ``search._root``."""
    L = spec.lattice
    n = L.n
    M = L.meet_table
    ncells = n * n
    t = [[None] * n for _ in range(n)]
    inst, bucket = _oracle_instances(spec, _adapter(L, t))
    if not set(spec.forbid) <= {e[0] for e in inst}:
        return None
    domains = [tuple(range(n))] * ncells
    for a, b, x in spec.fixed_entries:
        domains[a * n + b] = (x,)

    def holds(i, cell, x):
        _ax, d, _req, _f, v = inst[i]
        a, b = divmod(cell, n)
        t[a][b] = x
        ok = not _fails(M, *d.eval(L, M, t, v), d.relation)
        t[a][b] = None
        return ok

    single = {ax for ax in spec.require + spec.forbid if _single_cell(L, ax)}
    for cell in range(ncells):
        filters = {i for i in bucket[cell] if inst[i][2] and inst[i][0] in single}
        if filters:
            domains[cell] = tuple(x for x in domains[cell]
                                  if all(holds(i, cell, x) for i in filters))
            if not domains[cell]:
                return None
            bucket[cell] = [i for i in bucket[cell] if i not in filters]
    violable = {inst[i][0] for cell in range(ncells) for i in bucket[cell]
                if inst[i][0] in single
                and any(not holds(i, cell, x) for x in domains[cell])}
    if any(ax in single and ax not in violable for ax in spec.forbid):
        return None
    return inst, bucket, domains


def _root_view(root):
    """A root with the instance numbering taken out: per cell, the
    (axiom, required, args) it triggers, in bucket order, and the domains."""
    if root is None:
        return None
    inst, bucket, domains = root
    return ([[(inst[i][0], inst[i][2], inst[i][4]) for i in b] for b in bucket],
            domains)


def _assert_plan_matches_oracle(L, ax):
    plan = search._plan(L, ax)
    spec = SearchSpec(L, require=(ax,))
    n = L.n
    inst, bucket = _oracle_instances(spec, _adapter(L, [[None] * n for _ in range(n)]))
    trigger = {i: c for c, b in enumerate(bucket) for i in b}
    if _single_cell(L, ax):
        # required alone, the axiom's root filter leaves each cell the
        # values at which all its instances there hold
        _inst, _bucket, domains = _oracle_root(spec)
        assert plan.allowed == tuple(map(frozenset, domains)), ax
    else:
        assert plan.allowed is None
    assert plan.args == tuple(e[4] for e in inst), ax
    assert plan.triggers == tuple(trigger[i] for i in range(len(inst))), ax


@pytest.mark.parametrize("label,lattice", INVENTORY, ids=[lab for lab, _L in INVENTORY])
def test_plans_match_the_per_spec_root_pass(label, lattice):
    for ax in BINARY_AXIOMS:
        _assert_plan_matches_oracle(lattice, ax)


def _outcome(spec):
    """(witness tables, nodes, exhausted) of a search, or of its partial
    when the budget runs out."""
    try:
        res = find_witness(spec)
    except BudgetExhausted as exc:
        res = exc.partial
    return tuple(op.table for op in res.witnesses), res.nodes, res.exhausted


def _fixed_entry_specs():
    rng = Random("fixed-entry-specs")
    c2 = chain(2)
    yield SearchSpec(c2, require=(Axiom.WM,), forbid=(Axiom.ID,), find_all=True,
                     fixed_entries=((0, 0, 0),))
    yield SearchSpec(c2, require=(Axiom.WM,), forbid=(Axiom.ID,), find_all=True,
                     fixed_entries=((0, 0, 1),))
    for _label, L in INVENTORY[:5]:
        n = L.n
        for ax in BINARY_AXIOMS:
            others = rng.choice(((), (Axiom.P1,), (Axiom.P2,), (Axiom.WM,)))
            others = tuple(o for o in others if o is not ax)
            fixed = tuple((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randrange(1, 3)))
            fixed = tuple({(a, b): (a, b, v) for a, b, v in fixed}.values())
            yield SearchSpec(L, require=(ax,) + others, fixed_entries=fixed,
                             node_budget=300)
            yield SearchSpec(L, require=others, forbid=(ax,), fixed_entries=fixed,
                             node_budget=300)


def test_root_and_results_match_the_per_spec_root_pass_with_fixed_entries(monkeypatch):
    specs = list(_fixed_entry_specs())
    for spec in specs:
        assert _root_view(search._root(spec)) == _root_view(_oracle_root(spec)), spec
    planned = [_outcome(spec) for spec in specs]
    monkeypatch.setattr(search, "_root", _oracle_root)
    assert [_outcome(spec) for spec in specs] == planned
    # the root settles some of these specs and not others
    assert {nodes == 0 for _tables, nodes, _exhausted in planned} == {True, False}


def test_plan_store_holds_no_lattice_alive(monkeypatch):
    store, padded = weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary()
    monkeypatch.setattr(search, "_PLANS", store)
    monkeypatch.setattr(search, "_PADDED", padded)
    L = chain(3)
    res = find_witness(SearchSpec(L, require=(Axiom.P1, Axiom.P5), forbid=(Axiom.WM,)))
    assert res.found and list(store) == [L] and list(padded) == [L]
    assert set(store[L]) == {Axiom.P1, Axiom.P5, Axiom.WM}
    # the padded meet table and the blank table span n + n*n indices
    assert [len(table) for table in padded[L]] == [12, 12]
    gone = weakref.ref(L)
    del L, res
    gc.collect()
    assert gone() is None
    assert len(store) == 0 and len(padded) == 0


def test_equal_lattices_each_get_their_own_plans(monkeypatch):
    store = weakref.WeakKeyDictionary()
    monkeypatch.setattr(search, "_PLANS", store)
    first, second = chain(3), chain(3)
    spec = dict(require=(Axiom.P1, Axiom.P4), forbid=(Axiom.MP,))
    a = _outcome(SearchSpec(first, **spec))
    assert _outcome(SearchSpec(second, **spec)) == a
    assert len(store) == 2
    for L in (first, second):
        for ax in (Axiom.P1, Axiom.P4, Axiom.MP):
            assert store[L][ax] is search._plan(L, ax)
            _assert_plan_matches_oracle(L, ax)
    # a lattice of the same size but another order gets other plans
    diamond = INVENTORY[4][1]
    assert search._plan(diamond, Axiom.MP) != search._plan(chain(4), Axiom.MP)


def test_first_witness_is_lexicographically_first_on_3chain():
    c3 = chain(3)
    axes = P + (Axiom.MP, Axiom.WM)
    first = {}
    for rows, m in profiles(c3, axes):
        first.setdefault(m, rows)
    nodes = settled = exhausted = witnesses = 0
    for require, forbid, req, forb in splits(axes):
        want = min((rows for m, rows in first.items()
                    if m & req == req and not m & forb), default=None)
        res = find_witness(SearchSpec(c3, require=require, forbid=forbid))
        assert (res.witnesses[0].table if res.found else None) == want, (require, forbid)
        assert res.exhausted is (want is None)
        nodes += res.nodes
        settled += res.nodes == 0
        exhausted += res.exhausted
        witnesses += res.found
    # the search's trajectory over the 2187 splits, pinned as its cost gate:
    # nodes in total, specs settled at the root, exhausted, with a witness
    assert (nodes, settled, exhausted, witnesses) == (49_102, 459, 475, 1712)


def test_six_element_trajectory_through_nested_reads():
    # INV reads T[T[a][0]][0] and NORM reads three cells: waits on cells
    # read through other cells, at a size the 3-chain pin never reaches
    nodes = exhausted = witnesses = 0
    lattices = enumerate_lattices(6)
    for L in lattices:
        res = find_witness(SearchSpec(L, require=P + (Axiom.INV,), forbid=(Axiom.NORM,)))
        nodes += res.nodes
        exhausted += res.exhausted
        witnesses += res.found
    assert (len(lattices), nodes, exhausted, witnesses) == (15, 38_862, 15, 0)


def test_witnesses_are_reverified():
    # every emitted table must pass the full checker, not just the
    # search's incremental bookkeeping
    res = find_witness(SearchSpec(chain(2), require=(Axiom.FLAT,), find_all=True))
    for op in res.witnesses:
        assert check_axioms(op, (Axiom.FLAT,)).ok


def test_enumerate_lattices_counts():
    assert [len(enumerate_lattices(n)) for n in range(1, 6)] == [1, 1, 1, 2, 5]


def test_enumerate_lattices_refuses_a_wrong_number_of_names(monkeypatch):
    def built(names, rows):
        raise AssertionError("a candidate was built")

    monkeypatch.setattr(search, "FiniteLattice", built)
    with pytest.raises(ValueError, match="2 names for 3 elements"):
        enumerate_lattices(3, ("a", "b"))


def test_enumerate_lattices_lets_other_errors_through(monkeypatch):
    # only MissingBound and NotALattice mark a candidate that is no lattice
    def broken(names, rows):
        raise RuntimeError("broken constructor")

    monkeypatch.setattr(search, "FiniteLattice", broken)
    with pytest.raises(RuntimeError, match="broken constructor"):
        enumerate_lattices(3)


def test_inventory_matches_enumeration_up_to_isomorphism():
    by_size = {}
    for label, L in INVENTORY:
        by_size.setdefault(L.n, []).append(L)
    for n in range(1, 6):
        generated = enumerate_lattices(n)
        embedded = by_size.get(n, [])
        assert len(embedded) == len(generated)
        for L in embedded:
            assert any(find_isomorphism(L, G) is not None for G in generated)
        # embedded lattices of one size are pairwise non-isomorphic
        for i, A in enumerate(embedded):
            for B in embedded[i + 1:]:
                assert find_isomorphism(A, B) is None


MINIMAL = {
    Axiom.P1: ("chain2", ((1, 1), (1, 1))),
    Axiom.P2: ("chain2", ((0, 0), (0, 0))),
    Axiom.P3: ("chain2", ((0, 1), (0, 1))),
    Axiom.P4: ("chain3", ((1, 1, 1), (2, 1, 1), (0, 1, 2))),
    Axiom.P5: ("chain3", ((0, 0, 0), (1, 1, 1), (0, 1, 2))),
}


@pytest.mark.parametrize("axiom", P, ids=lambda a: a.value)
def test_minimal_witness_per_core_axiom(axiom):
    mw = minimal_witness(tuple(a for a in P if a is not axiom), (axiom,))
    label, table = MINIMAL[axiom]
    assert mw.found and mw.label == label
    assert mw.op.table == table
    # the lattices below the witness were searched to exhaustion
    for lab, _nodes, exhausted in mw.trail[:-1]:
        assert exhausted


def test_minimal_witness_exhausts_inventory_on_impossible_profile():
    # MP and WM force the top row to the identity, so P1 cannot fail
    mw = minimal_witness((Axiom.MP, Axiom.WM), (Axiom.P1,))
    assert not mw.found and mw.op is None and mw.label is None
    assert len(mw.trail) == len(INVENTORY)
    assert all(exhausted for _label, _nodes, exhausted in mw.trail)
    # the root pass settles every lattice before the first node
    assert all(nodes == 0 for _label, nodes, _exhausted in mw.trail)


def test_forbidding_norm_settles_every_chain_at_the_root():
    # no NORM instance can fail on a chain, so only the diamond and the
    # five-element lattices past it are searched
    mw = minimal_witness(P[:4], (Axiom.P5, Axiom.NORM))
    assert mw.label == "diamond+top"
    assert [nodes for _label, nodes, _exhausted in mw.trail] == [0, 0, 0, 0, 1636, 0, 38]
    assert mw.op.table == ((0, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 2, 2, 2),
                           (0, 1, 3, 3, 3), (0, 1, 2, 3, 4))
    mw = minimal_witness((Axiom.P4,), (Axiom.NORM,))
    assert mw.label == "diamond" and mw.trail[-1] == ("diamond", 23, False)
    assert mw.op.table == ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 1, 1))


def test_negimp_stack_on_b4_pinned():
    B = boolean_algebra(("p", "q"))
    res = find_witness(SearchSpec(
        B,
        require=P + (Axiom.MP, Axiom.ID, Axiom.NORM, Axiom.NEGIMP),
        forbid=(Axiom.WM,),
    ))
    assert res.found
    assert res.witnesses[0].table == ((3, 3, 3, 3), (0, 3, 0, 3),
                                      (1, 1, 3, 3), (0, 1, 2, 3))
    assert res.nodes == 29
