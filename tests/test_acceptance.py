"""The acceptance gate: thirteen release criteria, one test each.

Every test prints a single PASS/FAIL line (visible under ``pytest -s``
or in the -v test listing) and enforces its wall-clock budget.  The
bodies re-derive expected values independently where the point of the
criterion is agreement between two routes.
"""

import time
from contextlib import contextmanager
from itertools import product
from random import Random

from condlat import catalog
from condlat.frames import fixpoints, random_frame
from condlat.lattice import boolean_algebra, chain
from condlat.ops import (
    Axiom,
    ClassLabel,
    ConditionalOp,
    PRECONDITIONAL_AXIOMS,
    UnaryOp,
    check_axiom,
    check_axioms,
    classify,
    heyting_residual,
    is_orthomodular,
    precomplementation_report,
    sasaki_hook,
)
from condlat.probabilistic import NORM_WITNESS, confidence_space, verify_axioms
from condlat.representation import (
    build_fi_space,
    build_pair_frame,
    check_space_conditions,
    verify_fi_embedding,
    verify_pair_embedding,
)
from condlat.search import SearchSpec, find_witness, minimal_witness
from condlat.selection import ba_to_selection, check_frame, induced_conditional

CORE = PRECONDITIONAL_AXIOMS


@contextmanager
def criterion(num, budget, text):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL ({time.monotonic() - t0:.2f}s) {text}")
        raise
    dt = time.monotonic() - t0
    ok = dt < budget
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} ({dt:.2f}s / {budget:g}s) {text}")
    assert ok, f"criterion {num} took {dt:.2f}s, budget {budget}s"


def _profile(op, axioms):
    return {ax: check_axiom(op, ax).holds for ax in axioms}


def test_c01_each_core_axiom_has_its_own_countermodel():
    one_down = {
        "const-top-2chain": Axiom.P1,
        "const-bottom-2chain": Axiom.P2,
        "consequent-projection-2chain": Axiom.P3,
        "antitone-step-3chain": Axiom.P4,
        "collapse-step-3chain": Axiom.P5,
    }
    with criterion(1, 1.0, "five tables each fail exactly their own core axiom"):
        for name, target in one_down.items():
            got = _profile(catalog.entry(name).conditional, CORE)
            assert got == {ax: ax is not target for ax in CORE}, name


def test_c02_detachment_and_monotonicity_come_apart():
    with criterion(2, 1.0, "detachment and weak monotonicity fail separately"):
        e = catalog.entry("tail-constant-4chain")
        rep = check_axioms(e.conditional, CORE + (Axiom.WM, Axiom.MP))
        assert all(rep[ax].holds for ax in CORE + (Axiom.WM,))
        mp = rep[Axiom.MP]
        assert not mp.holds and mp.witness == (2, 1)
        assert tuple(e.lattice.names[i] for i in mp.witness) == ("b", "a")

        e = catalog.entry("meet-2chain")
        rep = check_axioms(e.conditional, CORE + (Axiom.MP, Axiom.WM))
        assert all(rep[ax].holds for ax in CORE + (Axiom.MP,))
        wm = rep[Axiom.WM]
        assert not wm.holds and wm.witness == (0, 1)


def test_c03_residual_axiom_basis_is_independent():
    four = (Axiom.P3, Axiom.P4, Axiom.MP, Axiom.WM)
    one_down = {
        "consequent-projection-2chain": Axiom.P3,
        "identity-or-consequent-3chain": Axiom.P4,
        "tail-constant-4chain": Axiom.MP,
        "meet-2chain": Axiom.WM,
    }
    with criterion(3, 1.0, "the four-axiom residual basis is independent"):
        for name, target in one_down.items():
            got = _profile(catalog.entry(name).conditional, four)
            assert got == {ax: ax is not target for ax in four}, name


def test_c04_three_residuation_characterizations_coincide():
    # plain ints: on the 3-chain, order is <= and meet is min
    R = range(3)
    with criterion(4, 10.0, "all 19683 tables: three residuation conditions agree"):
        residuated, full_basis, short_basis = set(), set(), set()
        for cells in product(R, repeat=9):
            T = (cells[0:3], cells[3:6], cells[6:9])
            if all((min(a, b) <= c) == (a <= T[b][c])
                   for a in R for b in R for c in R):
                residuated.add(T)
            if (all(T[2][a] <= a for a in R)
                    and all(min(a, b) <= T[a][b] for a in R for b in R)
                    and all(T[a][b] <= T[a][min(a, b)] for a in R for b in R)
                    and all(T[a][min(b, c)] <= T[a][b]
                            for a in R for b in R for c in R)
                    and all(T[a][T[min(a, b)][c]] <= T[min(a, b)][c]
                            for a in R for b in R for c in R)
                    and all(min(a, T[a][b]) <= b for a in R for b in R)
                    and all(b <= T[a][b] for a in R for b in R)):
                full_basis.add(T)
            if (all(T[a][b] <= T[a][min(a, b)] for a in R for b in R)
                    and all(T[a][min(b, c)] <= T[a][b]
                            for a in R for b in R for c in R)
                    and all(min(a, T[a][b]) <= b for a in R for b in R)
                    and all(b <= T[a][b] for a in R for b in R)):
                short_basis.add(T)
        assert residuated == full_basis == short_basis
        assert residuated == {heyting_residual(chain(3)).table}


def test_c05_published_frame_table_reproduced():
    fe = catalog.frame_entry("quad-two-way")
    with criterion(5, 1.0, "the four-point frame: 7 fixpoints, all 49 table cells"):
        fl = fixpoints(fe.frame)
        assert fl.sets == fe.fixpoint_masks
        assert len(fl.sets) == 7
        by_label = dict(fe.table_order)
        for i, (rl, _) in enumerate(fe.table_order):
            for j, (cl, _) in enumerate(fe.table_order):
                got = fe.frame.arrow(by_label[rl], by_label[cl])
                want = by_label[fe.table_names[i][j]]
                assert got == want, (rl, cl)


def test_c06_hook_suite_on_the_crooked_lattices():
    with criterion(6, 1.0, "hook identities, core axioms, orthomodularity verdicts"):
        # negation fails to import across the hook on the four-antichain
        e = catalog.entry("sasaki-M4")
        L, T, neg = e.lattice, e.conditional.table, e.unary.table
        a, c = L.index("a"), L.index("c")
        assert neg[T[a][c]] == a
        assert T[a][neg[c]] == neg[a]

        # two peaks send a -> b and a -> c to 1 while a -> (b and c) drops
        e = catalog.entry("sasaki-twin-peaks")
        L, T, neg = e.lattice, e.conditional.table, e.unary.table
        a, b, c = L.index("a"), L.index("b"), L.index("c")
        assert L.meet(T[a][b], T[a][c]) == L.top
        assert T[a][L.meet(b, c)] == neg[a]

        # the hook satisfies the core five on every catalog ortholattice
        hooks = [e.unary for e in catalog.ENTRIES if e.unary is not None]
        hooks += [
            UnaryOp(L, L.complement_map())
            for L in (chain(2, ("0", "1")), boolean_algebra(("p", "q")),
                      boolean_algebra(("u", "v", "w")))
        ]
        assert len(hooks) >= 6
        for neg in hooks:
            assert check_axioms(sasaki_hook(neg), CORE).ok

        # detachment-for-the-hook is exactly orthomodularity
        assert is_orthomodular(catalog.entry("sasaki-M4").unary).holds
        verdict = is_orthomodular(catalog.entry("sasaki-benzene").unary)
        assert not verdict.holds and verdict.witness is not None


def test_c07_normality_fails_below_detachment():
    with criterion(7, 1.0, "six-element gate table: proto class holds, normality dies"):
        e = catalog.entry("gate-to-bottom-6")
        rep = check_axioms(e.conditional, CORE + (Axiom.WM, Axiom.SEMI, Axiom.NORM))
        assert all(rep[ax].holds for ax in CORE + (Axiom.WM, Axiom.SEMI))
        assert classify(e.conditional).label is ClassLabel.PROTO_HEYTING
        nw = rep[Axiom.NORM]
        assert not nw.holds
        assert tuple(e.lattice.names[i] for i in nw.witness) == ("a", "b", "c")


def test_c08_filter_ideal_embedding_across_the_catalog():
    entries = catalog.preconditional_entries()
    with criterion(8, 30.0, f"filter-ideal embedding verified on {len(entries)} algebras"):
        assert len(entries) >= 10
        sizes = {e.lattice.n for e in entries}
        assert min(sizes) >= 2 and max(sizes) <= 8
        for e in entries:
            space = build_fi_space(e.lattice, e.conditional)
            rep = verify_fi_embedding(space)
            assert rep.ok, e.name
            assert rep.open_fixpoint_count == e.lattice.n, e.name
            assert check_space_conditions(space.frame, space.basis).ok, e.name


def test_c09_pair_frame_recovers_each_algebra():
    entries = catalog.preconditional_entries()
    with criterion(9, 60.0, "pair frame isomorphic to its source algebra, catalog-wide"):
        for e in entries:
            rep = verify_pair_embedding(build_pair_frame(e.lattice, e.conditional))
            assert rep.ok, e.name
            assert rep.fixpoint_count == e.lattice.n, e.name


def test_c10_selection_frames_round_trip():
    with criterion(10, 5.0, "well-order frame, algebra round trip, density gap"):
        wo = catalog.selection_entry("well-order-3")
        assert check_frame(wo.frame).ok

        e = catalog.entry("well-order-B8")
        model = ba_to_selection(e.lattice, e.conditional)
        assert model.frame.rel == wo.frame.rel
        assert induced_conditional(model.frame).table == e.conditional.table

        gap = catalog.selection_entry("density-gap-3")
        rep = check_frame(gap.frame)
        assert rep.success[0] and rep.centering[0] and rep.functionality[0]
        assert not rep.strong_density[0]
        p5 = check_axiom(induced_conditional(gap.frame), Axiom.P5)
        assert not p5.holds and p5.witness == (6, 4, 0)


def test_c11_graded_confidence_conditional():
    with criterion(11, 300.0, "exact-rational confidence space: core holds, normality fails"):
        rep = verify_axioms(confidence_space(), seed=0)
        assert rep.crosschecked > 0
        for ax in (Axiom.P1, Axiom.P2, Axiom.P3, Axiom.MP):
            assert rep[ax].holds and rep[ax].mode == "exhaustive", ax
        assert rep[Axiom.P2].instances == (1 << 11) ** 2
        for ax in (Axiom.P4, Axiom.P5):
            assert rep[ax].holds and rep[ax].mode == "exhaustive", ax
            assert rep[ax].instances == 2 ** 33
        norm = rep[Axiom.NORM]
        assert not norm.holds and norm.mode == "pinned"
        assert norm.witness == NORM_WITNESS


def test_c12_search_engine_matches_brute_force():
    with criterion(12, 60.0, "minimal countermodels and 2187-spec exhaustive agreement"):
        for target in CORE:
            others = tuple(ax for ax in CORE if ax is not target)
            t0 = time.monotonic()
            mw = minimal_witness(require=others, forbid=(target,))
            assert time.monotonic() - t0 < 10.0, target
            assert mw.found and mw.op.lattice.n <= 3, target
            got = _profile(mw.op, CORE)
            assert got == {ax: ax is not target for ax in CORE}, target

        two = chain(2, ("0", "1"))
        seven = CORE + (Axiom.MP, Axiom.WM)
        tables = [((c[0], c[1]), (c[2], c[3]))
                  for c in product(range(2), repeat=4)]
        profiles = {T: _profile(ConditionalOp(two, T), seven) for T in tables}
        for assign in product((0, 1, 2), repeat=7):
            require = tuple(ax for ax, k in zip(seven, assign) if k == 1)
            forbid = tuple(ax for ax, k in zip(seven, assign) if k == 2)
            expected = {T for T, p in profiles.items()
                        if all(p[ax] for ax in require)
                        and not any(p[ax] for ax in forbid)}
            res = find_witness(SearchSpec(two, require=require, forbid=forbid,
                                          find_all=True))
            assert res.exhausted
            assert {w.table for w in res.witnesses} == expected, (require, forbid)


def test_c13_closure_laws_and_induced_conditionals_at_scale():
    with criterion(13, 60.0, "1000 random frames obey closure laws and induce core tables"):
        rng = Random(0)
        for _ in range(1000):
            fr = random_frame(rng, rng.randint(1, 8))
            full = fr.full_mask
            for _ in range(8):
                A = rng.randrange(full + 1)
                B = rng.randrange(full + 1)
                cA, cB = fr.closure(A), fr.closure(B)
                assert A | cA == cA            # extensive
                assert fr.closure(cA) == cA    # idempotent
                assert not (A & ~B == 0 and cA & ~cB != 0)  # monotone
            assert check_axioms(fixpoints(fr).op, CORE).ok
        for e in catalog.preconditional_entries():
            assert precomplementation_report(e.conditional.derive_negation()).ok, e.name
