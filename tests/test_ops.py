import copy
import dataclasses
import pickle
import tracemalloc
from itertools import product
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from condlat import catalog, ops
from condlat.errors import (
    InternalInconsistency,
    NotAPrecomplementation,
    NotAnOrthocomplementation,
    NotAPreconditional,
    NotResiduated,
    WidthMismatch,
)
from condlat.frames import fixpoints, random_frame
from condlat.lattice import (
    BLOCK_CELLS,
    GRID_MIN_INSTANCES,
    FiniteLattice,
    Rows,
    antichain_bounded,
    boolean_algebra,
    chain,
    first_violation,
    grid_first_violation,
    scan_grid,
)
from condlat.ops import (
    AXIOM_DEFS,
    Axiom,
    AxiomCheck,
    AxiomReport,
    BINARY_AXIOMS,
    ClassLabel,
    ConditionalOp,
    PRECONDITIONAL_AXIOMS,
    UnaryOp,
    check_axiom,
    check_axioms,
    classify,
    from_precomplementation,
    heyting_residual,
    is_orthomodular,
    orthocomplement_report,
    precomplementation_report,
    require_orthocomplement,
    require_preconditional,
    residuation_witness,
    sasaki_hook,
)

from condlat.search import enumerate_lattices

from conftest import _product_scan, _readme_axioms, names_at


# -- table plumbing -----------------------------------------------------

def test_table_validation():
    L = chain(2)
    with pytest.raises(WidthMismatch):
        ConditionalOp(L, ((0,), (0, 1)))
    with pytest.raises(WidthMismatch):
        ConditionalOp(L, ((0, 2), (0, 1)))
    with pytest.raises(WidthMismatch):
        UnaryOp(L, (0, 1, 0))


@pytest.mark.parametrize("table, message", [
    (((0, 0, 0), (0, 0, 0)), "table has 2 rows for 3 elements"),
    (((0, 0, 0), (0, 0), (0, 0, 0)), "table row has 2 entries for 3 elements"),
    (((0, 0, 0), (0, -1, 5), (0, 0, 0)), "table entry -1 out of range"),
    (((0, 0, 0), (0, 5, -1), (0, 0, 0)), "table entry 5 out of range"),
    (((0, 0, 0), (0, 0, 0), (0, 3, 0)), "table entry 3 out of range"),
    (((0, 0, 0), (0, 0, 9), (0, 0)), "table entry 9 out of range"),
])
def test_conditional_table_rejections_name_the_first_offence(table, message):
    # rows are range-checked whole; the message still names the first bad entry
    with pytest.raises(WidthMismatch) as e:
        ConditionalOp(chain(3), table)
    assert str(e.value) == message


@pytest.mark.parametrize("table, message", [
    ((0, 0, 0, 0), "unary table has 4 entries for 3 elements"),
    ((0, -1, 5), "unary table entry -1 out of range"),
    ((0, 5, -1), "unary table entry 5 out of range"),
    ((0, 0, 3), "unary table entry 3 out of range"),
])
def test_unary_table_rejections_name_the_first_offence(table, message):
    with pytest.raises(WidthMismatch) as e:
        UnaryOp(chain(3), table)
    assert str(e.value) == message


def test_tables_are_stored_as_int_tuples():
    L = chain(3)
    op = ConditionalOp(L, np.array([[2, 2, 2], [0, 2, 2], [0, 1, 2]], dtype=np.uint8))
    assert op.table == ((2, 2, 2), (0, 2, 2), (0, 1, 2))
    assert all(type(x) is int for row in op.table for x in row)
    neg = UnaryOp(L, [np.int64(2), 0, 0])
    assert neg.table == (2, 0, 0) and all(type(x) is int for x in neg.table)


def test_named_rows_and_derive_negation():
    L = chain(3, ("0", "h", "1"))
    rows = (("1", "1", "1"), ("0", "1", "1"), ("0", "h", "1"))
    op = ConditionalOp(L, tuple(tuple(L.index(x) for x in row) for row in rows))
    assert op.table == ((2, 2, 2), (0, 2, 2), (0, 1, 2))
    assert op.derive_negation().table == (2, 0, 0)


# -- each catalog entry reproduces its recorded profile -----------------

@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.name)
def test_catalog_profile_is_exact(entry):
    rep = check_axioms(entry.conditional, tuple(entry.profile))
    got = {ax: rep[ax].holds for ax in entry.profile}
    assert got == entry.profile


@pytest.mark.parametrize(
    "entry",
    [e for e in catalog.ENTRIES if e.label is not None],
    ids=lambda e: e.name,
)
def test_catalog_label_is_exact(entry):
    assert classify(entry.conditional).label is entry.label


# -- single-axiom isolation: each of the five has a table failing it alone

FACT1 = {
    Axiom.P1: "const-top-2chain",
    Axiom.P2: "const-bottom-2chain",
    Axiom.P3: "consequent-projection-2chain",
    Axiom.P4: "antitone-step-3chain",
    Axiom.P5: "collapse-step-3chain",
}


@pytest.mark.parametrize("axiom", PRECONDITIONAL_AXIOMS, ids=lambda a: a.value)
def test_core_axioms_are_independent(axiom):
    op = catalog.entry(FACT1[axiom]).conditional
    rep = check_axioms(op, PRECONDITIONAL_AXIOMS)
    assert {ax for ax in PRECONDITIONAL_AXIOMS if not rep[ax].holds} == {axiom}


def test_witnesses_are_lex_first():
    op = catalog.entry("antitone-step-3chain").conditional
    c = check_axiom(op, Axiom.P4)
    assert not c.holds
    assert c.witness == (0, 1, 0)
    assert names_at(op.lattice, c.witness) == ("0", "h", "0")
    assert "P4 fails at (0,h,0)" in c.describe(op.lattice.names)


def _first_ternary_violation(op, axiom):
    """Brute force from the definitions: (witness, lhs, rhs) or None."""
    L, T = op.lattice, op.table
    for a, b, c in product(range(L.n), repeat=3):
        if axiom is Axiom.P4:
            lhs, rhs, eq = T[a][L.meet(b, c)], T[a][b], False
        elif axiom is Axiom.NORM:
            lhs, rhs, eq = L.meet(T[a][b], T[a][c]), T[a][L.meet(b, c)], False
        else:  # P5 is the inclusion, FLAT the equation
            inner = T[L.meet(a, b)][c]
            lhs, rhs, eq = T[a][inner], inner, axiom is Axiom.FLAT
        if (lhs != rhs) if eq else not L.leq(lhs, rhs):
            return (a, b, c), lhs, rhs
    return None


def _large_tables():
    B5 = boolean_algebra("pqrst")
    heyting = heyting_residual(B5)
    rows = [list(row) for row in heyting.table]
    rows[20][9] = (rows[20][9] + 1) % B5.n
    frame = random_frame(Random(2), 8)
    return {
        "heyting-B5": heyting,
        "heyting-B5-one-cell-changed": ConditionalOp(B5, rows),
        "fixpoints-of-random-frame": fixpoints(frame).op,
    }


LARGE_TABLES = _large_tables()


@pytest.mark.parametrize("axiom", (Axiom.P4, Axiom.P5, Axiom.NORM, Axiom.FLAT),
                         ids=lambda a: a.value)
@pytest.mark.parametrize("name", LARGE_TABLES)
def test_ternary_checks_above_sixteen_elements_are_exhaustive(name, axiom):
    op = LARGE_TABLES[name]
    assert op.lattice.n > 16
    c = check_axiom(op, axiom)
    assert c.mode == "exhaustive"
    first = _first_ternary_violation(op, axiom)
    assert c.holds == (first is None)
    if first is not None:
        assert (c.witness, c.lhs, c.rhs) == first


def _heyting_b64_late_cell():
    """The Heyting residual of the 64-element Boolean algebra with cell
    (50, 3) changed: ternary witnesses lie in antecedent row 50, past the
    first numpy block (one row at n = 64)."""
    B6 = boolean_algebra("pqrstu")
    rows = [list(row) for row in heyting_residual(B6).table]
    rows[50][3] = (rows[50][3] + 1) % B6.n
    return ConditionalOp(B6, rows)


# seeded 8-point frames whose fixpoint lattices have 18, 19, 48 and 42
# elements, none of them distributive
FIXPOINT_ALGEBRAS = {f"fixpoints-seed{s}": fixpoints(random_frame(Random(s), 8)).op
                     for s in (4, 9, 17, 22)}


GRID_TABLES = {
    **{e.name: e.conditional for e in catalog.ENTRIES if e.conditional is not None},
    **LARGE_TABLES,
    **FIXPOINT_ALGEBRAS,
    "heyting-B64-late-cell": _heyting_b64_late_cell(),
}


@pytest.mark.parametrize("name", GRID_TABLES)
def test_grid_route_matches_the_scan_for_every_axiom(name):
    # the grid route is called directly, so tables below the cutoff of
    # check_axiom cover the unary and binary grid forms too
    op = GRID_TABLES[name]
    readme = _readme_axioms(op.lattice, op.table)
    for axiom in BINARY_AXIOMS:
        d = AXIOM_DEFS[axiom]
        assert (d.arity, d.relation) == readme[axiom][:2]
        grid = ops._grid_check(op, axiom, d)
        scan = _product_scan(op.lattice, *readme[axiom])
        assert (grid.holds, grid.witness, grid.lhs, grid.rhs) == scan, axiom
        c = check_axiom(op, axiom)
        assert (c.holds, c.witness, c.lhs, c.rhs) == scan, axiom


def _chain_tables(n, count=None, seed=0):
    """Every table on the n-chain, or a seeded sample of count of them."""
    L = chain(n)
    codes = range(n ** (n * n))
    if count is not None:
        codes = Random(seed).sample(codes, count)
    for code in codes:
        cells = [code // n ** i % n for i in range(n * n)]
        yield ConditionalOp(L, tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n)))


def test_scan_route_matches_the_readme_scan_on_small_chains():
    # every arity is below the grid cutoff on these chains, so check_axiom
    # takes its scalar scan over the cached grid for each law
    tables = list(_chain_tables(2)) + list(_chain_tables(3, 500, seed=24))
    assert len(tables) == 516
    for op in tables:
        readme = _readme_axioms(op.lattice, op.table)
        for axiom in BINARY_AXIOMS:
            arity, relation, law = readme[axiom]
            assert op.lattice.n ** arity < GRID_MIN_INSTANCES
            c = check_axiom(op, axiom)
            scan = _product_scan(op.lattice, arity, relation, law)
            assert (c.holds, c.witness, c.lhs, c.rhs) == scan, (op.table, axiom)
            holds, witness, lhs, rhs = scan
            fresh = (AxiomCheck(axiom, True) if holds
                     else AxiomCheck(axiom, False, witness, lhs, rhs, relation))
            assert c == fresh and hash(c) == hash(fresh)


def test_holding_checks_are_one_frozen_object_per_axiom():
    heyting = heyting_residual(chain(3))
    meet = ConditionalOp(chain(3), chain(3).meet_table)
    assert heyting.table != meet.table
    c = check_axiom(heyting, Axiom.P2)
    assert c.holds and check_axiom(meet, Axiom.P2) is c
    # the grid route hands out the same constant
    B6 = boolean_algebra("pqrstu")
    norm = check_axiom(heyting, Axiom.NORM)
    assert norm.holds and check_axiom(heyting_residual(B6), Axiom.NORM) is norm
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.holds = False
    assert check_axiom(meet, Axiom.P2) == AxiomCheck(Axiom.P2, True)


def test_axiom_members_survive_value_lookup_pickle_and_copy():
    by_member = {ax: i for i, ax in enumerate(Axiom)}
    members = set(Axiom)
    for ax in Axiom:
        again = Axiom(ax.value)
        assert again is ax and hash(again) == hash(ax)
        assert pickle.loads(pickle.dumps(ax)) is ax
        assert copy.deepcopy(ax) is ax and copy.copy(ax) is ax
        assert by_member[again] == by_member[ax] and again in members
    assert AXIOM_DEFS[Axiom("P5")] is AXIOM_DEFS[Axiom.P5]
    report = check_axioms(heyting_residual(chain(3)), BINARY_AXIOMS)
    for back in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert isinstance(back, AxiomReport)
        assert back.profile() == report.profile()
        assert back[Axiom("MP")] == report[Axiom.MP]


def test_scan_grid_is_the_lexicographic_product_for_small_shapes():
    for k in range(1, 4):
        for n in range(8):
            if n ** k < GRID_MIN_INSTANCES:
                assert scan_grid(n, k) == tuple(product(range(n), repeat=k))
                assert scan_grid(n, k) is scan_grid(n, k)
            else:
                with pytest.raises(ValueError):
                    scan_grid(n, k)


def test_scan_grid_caches_no_grid_shape():
    scan_grid.cache_clear()
    B6 = boolean_algebra("pqrstu")
    check_axioms(ConditionalOp(B6, heyting_residual(B6).table), BINARY_AXIOMS)
    assert scan_grid.cache_info().currsize == 0
    check_axioms(heyting_residual(chain(3)), BINARY_AXIOMS)
    assert scan_grid.cache_info().currsize == 3  # arities 1, 2 and 3


def test_late_cell_witnesses_lie_past_the_first_block():
    op = GRID_TABLES["heyting-B64-late-cell"]
    rows_per_block = BLOCK_CELLS // op.lattice.n ** 2
    for axiom in (Axiom.P4, Axiom.P5, Axiom.NORM, Axiom.FLAT):
        assert check_axiom(op, axiom).witness[0] >= rows_per_block


def _block_starts(n, arity):
    """The first antecedent row of each block the grid route walks."""
    starts = []

    def record(a, *rest):
        starts.append(int(a.ravel()[0]))
        return np.zeros(1, bool)

    assert grid_first_violation(n, arity, record) is None
    return starts


def test_grid_blocks_grow_from_the_first():
    # ternary at n = 64: 1 row (BLOCK_CELLS cells), then 2, 4, 8 and 16 rows
    assert _block_starts(64, 3) == [0, 1, 3, 7, 15, 31, 47, 63]
    assert _block_starts(41, 3) == [0, 2, 6, 14, 30]
    assert _block_starts(64, 2) == [0]


@pytest.mark.parametrize("n, arity", [(64, 3), (41, 3), (64, 2), (9, 3)])
def test_grid_walk_finds_a_planted_cell_in_every_block(n, arity):
    # the first cell of each block, and the last cell of every row
    firsts = [(a,) + (0,) * (arity - 1) for a in _block_starts(n, arity)]
    for cell in firsts + [(a,) + (n - 1,) * (arity - 1) for a in range(n)]:
        def block(*v):
            out = True
            for x, c in zip(v, cell):
                out = out & (x == c)
            return out
        assert grid_first_violation(n, arity, block) == cell


# one changed cell (row, column, value) of the Heyting residual on the
# 64-element Boolean algebra that makes each ternary law fail first in
# antecedent row a; row 63 takes its own cell where the first does not fail
_PLANTS = {
    Axiom.P4: lambda a: (a, 63, 0),
    Axiom.P5: lambda a: (a, 63, 0) if a < 63 else (63, 1, 63),
    Axiom.NORM: lambda a: (a, 0, 0) if a < 63 else (63, 1, 0),
    Axiom.FLAT: lambda a: (a, 63, 0),
}


@pytest.mark.parametrize("axiom", _PLANTS)
def test_grown_blocks_name_a_violation_planted_at_each_block_start(axiom):
    B6 = boolean_algebra("pqrstu")
    heyting = heyting_residual(B6).table
    for a in _block_starts(64, 3):
        rows = [list(row) for row in heyting]
        r, c, value = _PLANTS[axiom](a)
        rows[r][c] = value
        op = ConditionalOp(B6, rows)
        got = check_axiom(op, axiom)
        assert not got.holds and got.witness[0] == a, (axiom, a)
        scan = _product_scan(B6, *_readme_axioms(B6, op.table)[axiom])
        assert (got.holds, got.witness, got.lhs, got.rhs) == scan, (axiom, a)


def test_distributivity_on_grown_blocks_names_a_violation_at_each_block_start():
    # B6 with one meet cell of row a changed (the table is no longer a
    # lattice's; the law check only reads it): the first failure is in row a
    B6 = boolean_algebra("pqrstu")
    for a in _block_starts(64, 3):
        M = [list(row) for row in B6.meet_table]
        if a:
            M[a][63] = 0
        else:
            M[0][1] = 1
        J = B6.join_table

        def fails(M, J, v):
            x, y, z = v
            return M[x][J[y][z]] != J[M[x][y]][M[x][z]]

        got = first_violation(64, 3, lambda v: fails(M, J, v), lambda *v: fails(
            Rows(np.array(M, np.uint8)), Rows(B6.join_array), v))
        scan = _product_scan(SimpleNamespace(n=64), 3, "eq",
                             lambda x, y, z: (M[x][J[y][z]], J[M[x][y]][M[x][z]]))
        assert got is not None and got[0] == a and scan[1] == got, a


@pytest.mark.parametrize("law", ["P4", "P5", "NORM", "FLAT", "residuation"])
def test_grid_check_of_a_64_element_table_stays_small(law):
    B6 = boolean_algebra("pqrstu")
    op = ConditionalOp(B6, heyting_residual(B6).table)
    tracemalloc.start()
    try:
        if law == "residuation":
            assert residuation_witness(op) is None
        else:
            assert check_axiom(op, Axiom(law)).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mp_and_wm_pull_apart():
    tail = catalog.entry("tail-constant-4chain")
    rep = check_axioms(tail.conditional, BINARY_AXIOMS)
    assert all(rep[ax].holds for ax in PRECONDITIONAL_AXIOMS + (Axiom.WM,))
    assert not rep[Axiom.MP].holds
    assert names_at(tail.lattice, rep[Axiom.MP].witness) == ("b", "a")

    meet2 = catalog.entry("meet-2chain")
    rep = check_axioms(meet2.conditional, BINARY_AXIOMS)
    assert all(rep[ax].holds for ax in PRECONDITIONAL_AXIOMS + (Axiom.MP,))
    assert not rep[Axiom.WM].holds
    assert rep[Axiom.WM].witness == (0, 1)


def test_require_preconditional_raises_with_axiom_name():
    op = catalog.entry("const-top-2chain").conditional
    with pytest.raises(NotAPreconditional, match="P1"):
        require_preconditional(op)


def test_meet_is_a_preconditional_on_any_lattice():
    for L in (chain(4), antichain_bounded(("a", "b", "c")), boolean_algebra(("p", "q"))):
        op = ConditionalOp(L, L.meet_table)
        assert check_axioms(op, PRECONDITIONAL_AXIOMS + (Axiom.MP,)).ok


# -- flattening ---------------------------------------------------------

def test_flattening_report_routes_agree():
    # FLAT is the equation whose one inclusion is P5
    op = catalog.entry("residual-3chain").conditional
    assert check_axiom(op, Axiom.FLAT).holds and check_axiom(op, Axiom.P5).holds

    broken = catalog.entry("collapse-step-3chain").conditional
    assert not check_axiom(broken, Axiom.P5).holds
    assert not check_axiom(broken, Axiom.FLAT).holds


@pytest.mark.parametrize("name", GRID_TABLES)
def test_reverse_flattening_witness_is_the_first_failure(name):
    # FLAT fails first where P5 or its reverse inclusion first fails
    op = GRID_TABLES[name]
    L, T = op.lattice, op.table
    reverse = None
    for a, b, c in product(range(L.n), repeat=3):
        inner = T[L.meet(a, b)][c]
        if not L.leq(inner, T[a][inner]):
            reverse = (a, b, c)
            break
    p5 = check_axiom(op, Axiom.P5).witness
    firsts = [w for w in (p5, reverse) if w is not None]
    assert check_axiom(op, Axiom.FLAT).witness == (min(firsts) if firsts else None)


# -- precomplementations ------------------------------------------------

def test_precomplementation_route():
    B = boolean_algebra(("p", "q"))
    neg = UnaryOp(B, B.complement_map())
    assert precomplementation_report(neg).ok
    op = from_precomplementation(neg)
    assert op.table == catalog.entry("material-B4").conditional.table
    assert classify(op).label is ClassLabel.CLASSICAL


def test_precomplementation_rejects_non_antitone():
    L = chain(3)
    with pytest.raises(NotAPrecomplementation):
        from_precomplementation(UnaryOp(L, (2, 1, 1)))  # top not sent to bottom
    rep = precomplementation_report(UnaryOp(L, (0, 1, 0)))  # not antitone
    assert not rep[Axiom.PC_ANTI].holds


def test_derived_negation_of_catalog_preconditionals_is_precomplementation():
    for e in catalog.preconditional_entries():
        assert precomplementation_report(e.conditional.derive_negation()).ok, e.name


# -- orthocomplements and the Sasaki table ------------------------------

def test_orthocomplement_report_on_m4():
    e = catalog.entry("sasaki-M4")
    rep = require_orthocomplement(e.unary)
    assert rep.ok and rep.de_morgan[0] and rep.excluded_middle[0]


def test_orthocomplement_rejects_boolean_complement_shuffle():
    B = boolean_algebra(("p", "q"))
    # each atom sent to itself: antitone and involutive, but p ∧ ¬p = p
    bad = UnaryOp(B, (3, 1, 2, 0))
    with pytest.raises(NotAnOrthocomplementation, match=r"^a ∧ ¬a != 0 at \(p\)$"):
        require_orthocomplement(bad)


def test_orthomodularity_split():
    assert is_orthomodular(catalog.entry("sasaki-M4").unary).holds
    om = is_orthomodular(catalog.entry("sasaki-benzene").unary)
    assert not om.holds and om.witness is not None
    a, b = om.witness
    L = catalog.entry("sasaki-benzene").lattice
    t = catalog.entry("sasaki-benzene").unary.table
    assert L.leq(a, b) and L.join(a, L.meet(t[a], b)) != b


def _orthocomplemented_lattices():
    """Ortholattices: MO3 (8 elements, orthomodular), the benzene ring
    (6, not) and its product with the 2-chain (12, not)."""
    mo3 = antichain_bounded("abcdef")
    t = list(range(8))
    t[mo3.bottom], t[mo3.top] = mo3.top, mo3.bottom
    for x, y in ("ab", "cd", "ef"):
        t[mo3.index(x)], t[mo3.index(y)] = mo3.index(y), mo3.index(x)
    ben = catalog.entry("sasaki-benzene")
    B, bt = ben.lattice, ben.unary.table
    pairs = list(product(range(B.n), (0, 1)))
    prod = FiniteLattice.from_leq(
        [f"{B.names[x]}{i}" for x, i in pairs],
        [(j, k) for j, (x, i) in enumerate(pairs) for k, (y, l) in enumerate(pairs)
         if B.leq(x, y) and i <= l])
    pt = [pairs.index((bt[x], 1 - i)) for x, i in pairs]
    return {"MO3": UnaryOp(mo3, t), "benzene": ben.unary,
            "benzene-x-2chain": UnaryOp(prod, pt)}


ORTHOCOMPLEMENTS = _orthocomplemented_lattices()
SASAKI_CASES = {**ORTHOCOMPLEMENTS, **{
    e.name: e.unary for e in catalog.ENTRIES if e.name.startswith("sasaki-")}}


def _neg_or_meet_brute(neg):
    L, t = neg.lattice, neg.table
    return tuple(tuple(L.join(t[a], L.meet(a, b)) for b in range(L.n)) for a in range(L.n))


def test_sasaki_table_formula():
    assert len(SASAKI_CASES) == 6
    for name, neg in SASAKI_CASES.items():
        op = sasaki_hook(neg)
        assert op.table == _neg_or_meet_brute(neg), name
        if name.startswith("sasaki-"):
            assert op.table == catalog.entry(name).conditional.table, name


def _first_element(n, fails):
    return next(((a,) for a in range(n) if fails(a)), None)


def _first_pair(n, fails):
    return next(((a, b) for a, b in product(range(n), repeat=2) if fails(a, b)), None)


def _unary_tables():
    lattices = [chain(3), chain(9), boolean_algebra("abcd")]
    lattices += [op.lattice for op in FIXPOINT_ALGEBRAS.values()]
    out = dict(ORTHOCOMPLEMENTS)
    for L in lattices:
        rng = Random(L.n)
        for i in range(6):
            out[f"n{L.n}-random{i}"] = UnaryOp(L, [rng.randrange(L.n) for _ in range(L.n)])
        # antitone, so the antitone law holds where random tables fail it
        out[f"n{L.n}-top-swap"] = UnaryOp(
            L, [L.top if a == L.bottom else L.bottom for a in range(L.n)])
    return out


UNARY_TABLES = _unary_tables()


@pytest.mark.parametrize("name", UNARY_TABLES)
def test_unary_law_witnesses_match_the_scan(name):
    neg = UNARY_TABLES[name]
    L, t = neg.lattice, neg.table
    anti = _first_pair(L.n, lambda a, b: L.leq(a, b) and not L.leq(t[b], t[a]))
    assert precomplementation_report(neg)[Axiom.PC_ANTI].witness == anti
    if anti is None and t[L.top] == L.bottom:
        assert from_precomplementation(neg).table == _neg_or_meet_brute(neg)
    else:
        with pytest.raises(NotAPrecomplementation):
            from_precomplementation(neg)

    rep = orthocomplement_report(neg)
    semi = _first_element(L.n, lambda a: L.meet(a, t[a]) != L.bottom)
    inv = _first_element(L.n, lambda a: t[t[a]] != a)
    em = _first_element(L.n, lambda a: L.join(a, t[a]) != L.top)
    assert rep.semicomplement == (semi is None, semi)
    assert rep.involution == (inv is None, inv)
    assert rep.excluded_middle == (em is None, em)

    def meet_dm(a, b):
        return t[L.meet(a, b)] != L.join(t[a], t[b])

    dm = _first_pair(L.n, lambda a, b: meet_dm(a, b)
                     or t[L.join(a, b)] != L.meet(t[a], t[b]))
    if dm is not None:
        dm += ("meet" if meet_dm(*dm) else "join",)
    assert rep.de_morgan == (dm is None, dm)
    if name in ORTHOCOMPLEMENTS:
        law = _first_pair(L.n, lambda a, b: L.leq(a, b)
                          and L.join(a, L.meet(t[a], b)) != b)
        detachment = _first_pair(
            L.n, lambda a, b: not L.leq(L.meet(a, L.join(t[a], L.meet(a, b))), b))
        assert (detachment is None) == (law is None)
        om = is_orthomodular(neg)
        assert (om.holds, om.witness) == (law is None, law)


def test_orthomodularity_verdicts_on_ortholattices():
    verdicts = {name: is_orthomodular(u).holds for name, u in ORTHOCOMPLEMENTS.items()}
    assert verdicts == {"MO3": True, "benzene": False, "benzene-x-2chain": False}
    assert ORTHOCOMPLEMENTS["benzene-x-2chain"].lattice.n == 12
    for u in ORTHOCOMPLEMENTS.values():
        # classify cross-checks a Sasaki label against ¬a ∨ (a ∧ b)
        label = classify(sasaki_hook(u)).label
        assert label in (ClassLabel.SASAKI_OL, ClassLabel.SASAKI_OML)


def _bend_neg_or_meet(monkeypatch):
    """Make ops build ¬a ∨ (a ∧ b) with 1 -> a = 1 (on sasaki-M4, 1 -> a = a).
    The column of 0, which SEMI and INV read, is kept, so sasaki-M4 still
    passes require_orthocomplement."""
    real = ops._neg_or_meet

    def bent(neg):
        L = neg.lattice
        rows = [list(row) for row in real(neg)]
        rows[L.top][L.index("a")] = L.top
        return rows

    monkeypatch.setattr(ops, "_neg_or_meet", bent)
    return catalog.entry("sasaki-M4")


def test_sasaki_table_is_built_once_per_call(monkeypatch):
    built = []
    real = ops._neg_or_meet
    monkeypatch.setattr(ops, "_neg_or_meet", lambda neg: built.append(neg) or real(neg))
    for name, neg in SASAKI_CASES.items():
        for call in (sasaki_hook, is_orthomodular):
            built.clear()
            call(neg)
            assert built == [neg], (name, call.__name__)


def test_sasaki_forms_disagreeing_raise(monkeypatch):
    e = _bend_neg_or_meet(monkeypatch)
    with pytest.raises(InternalInconsistency, match=r"Sasaki forms disagree at \(1,a\)"):
        sasaki_hook(e.unary)


def test_orthomodularity_routes_disagreeing_raise(monkeypatch):
    # the bent cell breaks MP, 1 ∧ (1 -> a) = 1 > a, where the law holds
    e = _bend_neg_or_meet(monkeypatch)
    with pytest.raises(InternalInconsistency, match="orthomodularity routes disagree"):
        is_orthomodular(e.unary)


def test_sasaki_label_off_the_formula_raises(monkeypatch):
    e = _bend_neg_or_meet(monkeypatch)
    with pytest.raises(InternalInconsistency,
                       match=r"label SasakiOML but table is not ¬a ∨ \(a ∧ b\) at \(1,a\)"):
        classify(e.conditional)


def test_orthocomplement_failing_a_derived_law_raises(monkeypatch):
    real = ops.orthocomplement_report
    monkeypatch.setattr(ops, "orthocomplement_report", lambda neg, hook=None: (
        dataclasses.replace(real(neg, hook), excluded_middle=(False, (neg.lattice.bottom,)))))
    with pytest.raises(InternalInconsistency, match="failed a derived one"):
        require_orthocomplement(catalog.entry("sasaki-M4").unary)


# -- residuation --------------------------------------------------------

def test_heyting_residual_is_residuated_and_unique():
    for L in (chain(2), chain(5), boolean_algebra(("p", "q", "r"))):
        op = heyting_residual(L)
        assert residuation_witness(op) is None
        assert classify(op).label in (ClassLabel.HEYTING, ClassLabel.CLASSICAL)


def test_non_distributive_has_no_residual():
    with pytest.raises(NotResiduated):
        heyting_residual(antichain_bounded(("a", "b", "c")))


def _first_residuation_failure(op):
    L, T = op.lattice, op.table
    for a, b, c in product(range(L.n), repeat=3):
        left, right = L.leq(L.meet(a, b), c), L.leq(a, T[b][c])
        if left != right:
            return (a, b, c, "forward" if left else "backward")
    return None


def _residual_candidate(L):
    """b -> c = join of {a : a ∧ b <= c}: the Heyting residual when L is
    distributive, unresiduated otherwise."""
    return ConditionalOp(L, tuple(
        tuple(L.join_mask(sum(1 << a for a in range(L.n) if L.leq(L.meet(a, b), c)))
              for c in range(L.n))
        for b in range(L.n)))


def _residuation_tables():
    out = {}
    lattices = [(f"n{n}-{i}", L) for n in range(1, 6)
                for i, L in enumerate(enumerate_lattices(n))]
    lattices += [(name, op.lattice) for name, op in FIXPOINT_ALGEBRAS.items()]
    for name, L in lattices:
        rng = Random(name)
        out[f"{name}-meet"] = ConditionalOp(L, L.meet_table)
        out[f"{name}-candidate"] = _residual_candidate(L)
        out[f"{name}-random"] = ConditionalOp(
            L, [[rng.randrange(L.n) for _ in range(L.n)] for _ in range(L.n)])
    out.update(FIXPOINT_ALGEBRAS)
    out["heyting-B64"] = heyting_residual(boolean_algebra("pqrstu"))
    out["heyting-B64-late-cell"] = GRID_TABLES["heyting-B64-late-cell"]
    return out


RESIDUATION_TABLES = _residuation_tables()


@pytest.mark.parametrize("name", RESIDUATION_TABLES)
def test_residuation_witness_is_the_first_failure(name):
    op = RESIDUATION_TABLES[name]
    assert residuation_witness(op) == _first_residuation_failure(op)


def test_residuation_witness_cases_cover_both_verdicts_and_directions():
    got = {name: residuation_witness(op) for name, op in RESIDUATION_TABLES.items()}
    assert {w[3] for w in got.values() if w is not None} == {"forward", "backward"}
    assert got["heyting-B64"] is None
    # past the first block, which is one antecedent row at n = 64
    assert got["heyting-B64-late-cell"][0] > 0


def test_residuation_witness_directions():
    L = chain(2)
    # constant-top table accepts everything on the right: backward fails
    w = residuation_witness(ConditionalOp(L, ((1, 1), (1, 1))))
    assert w is not None and w[3] == "backward"
    w = residuation_witness(ConditionalOp(L, ((0, 0), (0, 0))))
    assert w is not None and w[3] == "forward"


# -- classification chain ----------------------------------------------

def test_classification_most_specific_labels():
    cases = {
        "residual-3chain": ClassLabel.HEYTING,
        "material-B8": ClassLabel.CLASSICAL,
        "sasaki-M4": ClassLabel.SASAKI_OML,
        "sasaki-benzene": ClassLabel.SASAKI_OL,
        "tail-constant-4chain": ClassLabel.PROTO_HEYTING,
        "meet-M3": ClassLabel.WITH_MP,
        "const-top-2chain": ClassLabel.NOT_PRECONDITIONAL,
    }
    for name, label in cases.items():
        assert classify(catalog.entry(name).conditional).label is label, name


def test_classify_label_strings():
    # the labels are part of the CLI surface; keep them stable
    assert str(ClassLabel.CLASSICAL) == "ClassicalMaterial"
    assert str(ClassLabel.PROTO_HEYTING) == "ProtoHeyting"
    assert str(ClassLabel.NOT_PRECONDITIONAL) == "None"
