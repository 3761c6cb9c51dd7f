import dataclasses
import hashlib
from collections import Counter
from random import Random

import pytest

from condlat import catalog
from condlat import frames as frames_module
from condlat.errors import EmbeddingNotVerified, NotAPreconditional, TooLarge
from condlat.frames import RelationalFrame, first_law_failure, fixpoints, random_frame
from condlat.lattice import GRID_MIN_INSTANCES, MAX_ELEMENTS
from condlat.ops import (
    BINARY_AXIOMS,
    PRECONDITIONAL_AXIOMS,
    Axiom,
    ConditionalOp,
    check_axioms,
)
from condlat.representation import (
    FilterIdealSpace,
    _embedding_failures,
    build_fi_space,
    build_pair_frame,
    check_space_conditions,
    consonant,
    verify_fi_embedding,
    verify_pair_embedding,
)
from condlat.search import SearchSpec, enumerate_lattices, find_witness
from conftest import TamperedFrame, names_at

PRECONDITIONALS = catalog.preconditional_entries()


def test_preconditional_subcatalog_shape():
    names = [e.name for e in PRECONDITIONALS]
    assert len(names) == 14
    assert "residual-3chain" in names and "sasaki-twin-peaks" in names
    assert "const-top-2chain" not in names


def test_build_pair_frame_requires_the_core_axioms():
    bad = catalog.entry("antitone-step-3chain").conditional
    with pytest.raises(NotAPreconditional):
        build_pair_frame(bad.lattice, bad)


def test_pair_points_are_the_conditional_image():
    e = catalog.entry("residual-3chain")
    pf = build_pair_frame(e.lattice, e.conditional)
    T = e.conditional.table
    expect = sorted({(x, T[x][y]) for x in range(3) for y in range(3)})
    assert pf.points == tuple(expect)
    # relation: (a,b) -> (c,d) iff c is not below b
    for i, (_a, b) in enumerate(pf.points):
        for j, (c, _d) in enumerate(pf.points):
            assert pf.frame.related(i, j) == (not e.lattice.leq(c, b))


@pytest.mark.parametrize("entry", PRECONDITIONALS, ids=lambda e: e.name)
def test_pair_embedding_holds_catalog_wide(entry):
    pf = build_pair_frame(entry.lattice, entry.conditional)
    rep = verify_pair_embedding(pf)
    assert rep.ok
    assert rep.fixpoint_count == entry.lattice.n
    assert rep.mapping is not None and len(set(rep.mapping)) == entry.lattice.n


@pytest.mark.parametrize("entry", PRECONDITIONALS, ids=lambda e: e.name)
def test_fi_embedding_holds_catalog_wide(entry):
    space = build_fi_space(entry.lattice, entry.conditional)
    rep = verify_fi_embedding(space)
    assert rep.ok
    assert rep.open_fixpoint_count == entry.lattice.n


@pytest.mark.parametrize("entry", PRECONDITIONALS, ids=lambda e: e.name)
def test_space_conditions_hold_catalog_wide(entry):
    space = build_fi_space(entry.lattice, entry.conditional)
    rep = check_space_conditions(space.frame, space.basis)
    assert rep.ok, (rep.separated, rep.cofix_structure,
                    rep.pairs_realized, rep.relation_matches)


def test_consonant_pairs_include_the_promised_ones():
    e = catalog.entry("material-B4")
    L, T = e.lattice, e.conditional.table
    for x in range(L.n):
        assert consonant(L, e.conditional, L.top, x)
        for y in range(L.n):
            assert consonant(L, e.conditional, x, T[x][y])


@pytest.mark.parametrize("entry", PRECONDITIONALS, ids=lambda e: e.name)
def test_fi_points_are_exactly_the_consonant_pairs(entry):
    L, T = entry.lattice, entry.conditional.table
    want = tuple((f, i) for f in range(L.n) for i in range(L.n)
                 if all(L.leq(T[a][b], i) for a in range(L.n) if L.leq(f, a)
                        for b in range(L.n) if L.leq(L.meet(a, b), i)))
    assert build_fi_space(L, entry.conditional).pairs == want


def test_basis_is_principal_filters():
    e = catalog.entry("residual-3chain")
    space = build_fi_space(e.lattice, e.conditional)
    for a in range(e.lattice.n):
        want = sum(
            1 << k
            for k, (f, _i) in enumerate(space.pairs)
            if e.lattice.leq(f, a)
        )
        assert space.basis[a] == want


def _open_sets(frame, basis):
    """The reference: every open of the topology the basis generates, as
    unions of finite intersections of basis sets."""
    inters = {frame.full_mask, *basis}
    while True:
        more = {a & b for a in inters for b in inters} - inters
        if not more:
            break
        inters |= more
    opens = {0}
    for u in inters:
        opens |= {o | u for o in opens}
    return sorted(opens)


def _structure_note(frame, opens, cofix):
    """cofix_structure's note, with the union condition checked on every open."""
    for u in cofix:
        for v in cofix:
            for what, w in (("intersection", u & v), ("join", frame.closure(u | v)),
                            ("conditional", frame.arrow(u, v))):
                if w not in cofix:
                    return f"{what} leaves the family ({u:#x},{v:#x})"
    for o in opens:
        cover = 0
        for u in cofix:
            if u & ~o == 0:
                cover |= u
        if cover != o:
            return f"open {o:#x} is not a union of compact opens"
    return None


@pytest.mark.parametrize("entry", PRECONDITIONALS, ids=lambda e: e.name)
def test_open_fixpoints_and_open_count_match_the_oracle(entry):
    space = build_fi_space(entry.lattice, entry.conditional)
    fr = space.frame
    opens = _open_sets(fr, space.basis)
    cofix = [o for o in opens if fr.closure(o) == o]
    rep = verify_fi_embedding(space)
    assert rep.open_count == len(opens)
    assert rep.open_fixpoint_count == len(cofix) == entry.lattice.n
    assert check_space_conditions(fr, space.basis).cofix == tuple(cofix)


def _conditions_oracle(frame, cofix, operation_closed):
    """separated, pairs_realized and relation_matches by loops over their
    definitions; the pairs are checked whenever the compact opens are
    closed under the three operations, also when some open is no union
    of them.  F(x) is the compact opens holding x, I(x) those holding
    no successor of x; the compact opens form a lattice under inclusion
    with meet ∩ and conditional frame.arrow, in which (f, i) is consonant
    when f <= a and a ∧ b <= i force (a -> b) <= i."""
    m, n = frame.m, len(cofix)
    F = [{k for k in range(n) if cofix[k] >> x & 1} for x in range(m)]
    I = [{k for k in range(n)
          if not any(frame.related(x, y) and cofix[k] >> y & 1 for y in range(m))}
         for x in range(m)]
    sep = next(((x0, x) for x in range(m) for x0 in range(x)
                if F[x0] == F[x] and I[x0] == I[x]), None)
    rel = next(((x, y) for x in range(m) for y in range(m)
                if frame.related(x, y) != (not I[x] & F[y])), None)
    if not operation_closed:
        return (sep is None, sep), (False, "compact opens are not operation-closed"), \
            (rel is None, rel)
    le = [[cofix[a] & ~cofix[b] == 0 for b in range(n)] for a in range(n)]
    meet = [[cofix.index(cofix[a] & cofix[b]) for b in range(n)] for a in range(n)]
    imp = [[cofix.index(frame.arrow(cofix[a], cofix[b])) for b in range(n)] for a in range(n)]

    def consonant(f, i):
        return all(le[imp[a][b]][i] for a in range(n) if le[f][a]
                   for b in range(n) if le[meet[a][b]][i])

    def realized(f, i):
        up = {k for k in range(n) if le[f][k]}
        down = {k for k in range(n) if le[k][i]}
        return any(F[x] == up and I[x] == down for x in range(m))

    real = next(((f, i) for f in range(n) for i in range(n)
                 if consonant(f, i) and not realized(f, i)), None)
    return (sep is None, sep), (real is None, real), (rel is None, rel)


def test_space_conditions_match_the_oracle_on_random_bases():
    rng = Random(5)
    notes, union_only = [], []
    failed = {"separated": 0, "pairs_realized": 0, "relation_matches": 0}
    for _ in range(200):
        fr = random_frame(rng, rng.randint(1, 7), rng.choice((0.3, 0.6)))
        basis = [rng.randrange(fr.full_mask + 1) for _ in range(rng.randint(0, 5))]
        opens = _open_sets(fr, basis)
        cofix = [o for o in opens if fr.closure(o) == o]
        if len(cofix) > MAX_ELEMENTS:
            with pytest.raises(TooLarge):
                check_space_conditions(fr, basis)
            continue
        rep = check_space_conditions(fr, basis)
        assert rep.cofix == tuple(cofix)
        note = _structure_note(fr, opens, cofix)
        assert rep.cofix_structure == (note is None, note)
        notes.append(note)
        want = _conditions_oracle(fr, cofix, not (note and "leaves the family" in note))
        if note and "not a union" in note:
            union_only.append(rep.pairs_realized)
        assert (rep.separated, rep.pairs_realized, rep.relation_matches) == want
        for name, (holds, _) in zip(failed, want):
            failed[name] += not holds
    # the cases cover a structure that holds and both ways it can fail, and
    # each of the other three conditions holding and failing
    assert all(0 < k < len(notes) for k in failed.values()), failed
    assert None in notes
    assert any(n and "leaves the family" in n for n in notes)
    assert any(n and "not a union" in n for n in notes)
    # operation-closed compact opens that miss an open still have their
    # consonant pairs checked
    assert union_only and all(isinstance(w, tuple) or w is None for _, w in union_only)


@pytest.mark.parametrize("entry", PRECONDITIONALS, ids=lambda e: e.name)
def test_separation_and_relation_match_the_oracle_with_one_edge_flipped(entry):
    # frames of 8 or more points put the relation condition on its numpy block
    space = build_fi_space(entry.lattice, entry.conditional)
    m, rng = space.frame.m, Random(entry.name)
    for _ in range(4):
        pred = [space.frame.predecessors(y) for y in range(m)]
        pred[rng.randrange(m)] ^= 1 << rng.randrange(m)
        fr = RelationalFrame(space.frame.names, pred)
        rep = check_space_conditions(fr, space.basis)
        sep, _, rel = _conditions_oracle(fr, list(rep.cofix), False)
        assert (rep.separated, rep.relation_matches) == (sep, rel)


def _set_grids_calls(monkeypatch):
    """The number of sets of every frames._set_grids call from now on."""
    calls = []
    set_grids = frames_module._set_grids

    def spy(frame, H):
        calls.append(len(H))
        return set_grids(frame, H)

    monkeypatch.setattr(frames_module, "_set_grids", spy)
    return calls


@pytest.mark.parametrize("seed", (2, 4, 22))
def test_fi_route_decides_fixpoint_algebras_of_eight_point_frames(seed, monkeypatch):
    # seeds 2 and 22: 33 and 42 elements on 300 and 448 consonant pairs
    fl = fixpoints(random_frame(Random(seed), 8))
    n = fl.lattice.n
    space = build_fi_space(fl.lattice, fl.op)
    calls = _set_grids_calls(monkeypatch)
    rep = verify_fi_embedding(space)
    assert rep.ok and rep.open_fixpoint_count == n
    # the embedding check: one set of grids on the image of hat
    assert calls == [n]
    cond = check_space_conditions(space.frame, space.basis)
    assert cond.ok and len(cond.cofix) == n
    # the structure check: one set of grids on the compact opens
    assert calls[1:] == [n]
    assert (seed, n) in ((2, 33), (4, 18), (22, 42))


def test_pair_route_decides_the_42_element_algebra_on_its_198_point_frame(monkeypatch):
    fl = fixpoints(random_frame(Random(22), 8))
    pf = build_pair_frame(fl.lattice, fl.op)
    assert pf.frame.m == 198
    calls = _set_grids_calls(monkeypatch)
    rep = verify_pair_embedding(pf)
    assert rep.ok and rep.failures == ()
    assert rep.fixpoint_count == 42
    # the fixpoints' own grids; the embedding check then reads only
    # index tables, since the candidate image is all fixpoints
    assert calls == [42]


def test_pair_route_closes_no_set_beyond_its_fixpoints(monkeypatch):
    # the embedding check needs no closure of its own: the candidate image
    # is looked up among the fixpoints, and the laws among their tables
    fl = fixpoints(random_frame(Random(22), 8))
    pf = build_pair_frame(fl.lattice, fl.op)
    calls = []
    closure = RelationalFrame.closure

    def spy(frame, A):
        calls.append(A)
        return closure(frame, A)

    monkeypatch.setattr(RelationalFrame, "closure", spy)
    fixpoints(pf.frame)
    alone = len(calls)
    del calls[:]
    assert verify_pair_embedding(pf).ok
    assert len(calls) == alone > 42


def _tampered_pair_frame(pf, kind, rng):
    """pf with two images of hat swapped, one table cell changed, one
    frame edge flipped, or one bit of one image flipped."""
    L, fr, hat = pf.lattice, pf.frame, list(pf.hat)
    if kind == "swap":
        a, b = rng.sample(range(L.n), 2)
        hat[a], hat[b] = hat[b], hat[a]
        return dataclasses.replace(pf, hat=tuple(hat))
    if kind == "cell":
        T = [list(row) for row in pf.op.table]
        a, b = rng.randrange(L.n), rng.randrange(L.n)
        T[a][b] = (T[a][b] + 1 + rng.randrange(L.n - 1)) % L.n
        return dataclasses.replace(pf, op=ConditionalOp(L, tuple(map(tuple, T))))
    if kind == "edge":
        pred = [fr.predecessors(x) for x in range(fr.m)]
        pred[rng.randrange(fr.m)] ^= 1 << rng.randrange(fr.m)
        return dataclasses.replace(pf, frame=RelationalFrame(fr.names, pred))
    hat[rng.randrange(L.n)] ^= 1 << rng.randrange(fr.m)
    return dataclasses.replace(pf, hat=tuple(hat))


def _pair_outcome(pf):
    try:
        rep = verify_pair_embedding(pf)
    except EmbeddingNotVerified as exc:
        assert not exc.report.ok and exc.report.failures and exc.report.mapping is None
        return type(exc).__name__, str(exc), exc.report.failures, exc.report.fixpoint_count
    return rep.ok, rep.mapping, rep.failures, rep.fixpoint_count


def _pair_algebras():
    """The 14 catalog preconditionals, then the fixpoint algebras of twelve
    seeded 6-point frames (9 to 16 elements), as (name, lattice, op)."""
    algebras = [(e.name, e.lattice, e.conditional) for e in PRECONDITIONALS]
    for s in range(12):
        fl = fixpoints(random_frame(Random(s), 6))
        algebras.append((f"frame-seed{s}", fl.lattice, fl.op))
    return algebras


def test_pair_route_outcomes_on_tampered_pair_frames_are_pinned():
    outcomes = []
    for name, L, op in _pair_algebras():
        pf, rng = build_pair_frame(L, op), Random(name)
        for kind in ("swap", "cell", "edge", "bit") * 3:
            outcomes.append(_pair_outcome(_tampered_pair_frame(pf, kind, rng)))
    # the candidate map alone decides: every tampering but one is caught,
    # including the swapped images that some other isomorphism would mend
    routes = Counter(o[0] if isinstance(o[0], str) else "candidate" for o in outcomes)
    assert routes == {"EmbeddingNotVerified": 311, "candidate": 1}
    failures = [f for o in outcomes for f in o[2]]
    for part in (" is not a fixpoint", "candidate map is not injective", "meet not preserved",
                 "join not preserved", "conditional not preserved", "candidate image has "):
        assert any(part in f for f in failures), part
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]
    assert digest == "4fa1acf9120e1f52"


def test_pair_route_names_the_law_failure_the_set_law_check_names():
    # swapping two images keeps hat injective onto the fixpoints, and a
    # changed table cell keeps hat: either way the index-table check must
    # name the cell and law first_law_failure names on the masks
    seen = set()
    for name, L, op in _pair_algebras():
        pf, rng = build_pair_frame(L, op), Random(name)
        rep = verify_pair_embedding(pf)
        assert rep.ok and rep.failures == ()
        for kind in ("swap", "cell") * 6:
            bent = _tampered_pair_frame(pf, kind, rng)
            first = first_law_failure(bent.frame, bent.hat, L, bent.op.table)
            want = () if first is None else (
                f"{first[0]} not preserved at ({L.names[first[1]]},{L.names[first[2]]})",)
            assert _pair_outcome(bent)[2] == want, (name, kind)
            seen.add(first and first[0])
    assert {"meet", "join", "conditional"} <= seen


def test_pair_route_holds_on_every_preconditional_up_to_five_elements():
    # the evidence that the candidate map needs no rescue: each algebra's
    # map is a bijection onto all fixpoints of its pair frame
    counts = Counter()
    for n in range(1, 6):
        for L in enumerate_lattices(n):
            res = find_witness(SearchSpec(L, require=PRECONDITIONAL_AXIOMS, find_all=True))
            assert res.exhausted
            for op in res.witnesses:
                rep = verify_pair_embedding(build_pair_frame(L, op))
                assert rep.ok and rep.fixpoint_count == L.n, (L.names, op.table)
                assert sorted(rep.mapping) == list(range(L.n)), (L.names, op.table)
                counts[n] += 1
    assert counts == {1: 1, 2: 2, 3: 8, 4: 88, 5: 1659}
    assert sum(counts.values()) == 1758


def test_pair_and_fi_points_and_hats_follow_the_order_definition():
    # the masks _pair_space ORs together, against one leq call per point
    algebras = [(L, op) for _, L, op in _pair_algebras()]
    fl = fixpoints(random_frame(Random(22), 8))
    algebras.append((fl.lattice, fl.op))
    for L, op in algebras:
        pf, space = build_pair_frame(L, op), build_fi_space(L, op)
        for pairs, frame, hat in ((pf.points, pf.frame, pf.hat),
                                  (space.pairs, space.frame, space.basis)):
            for j, (x, _) in enumerate(pairs):
                assert frame.predecessors(j) == sum(
                    1 << i for i, (_, y) in enumerate(pairs) if not L.leq(x, y))
            assert hat == tuple(sum(1 << i for i, (x, _) in enumerate(pairs) if L.leq(x, a))
                                for a in range(L.n))
    assert pf.frame.m == 198


def test_mp_without_norm_on_b8_from_the_frame_side():
    fl = fixpoints(RelationalFrame([f"p{i}" for i in range(4)], [9, 3, 5, 0]))
    assert len(fl.sets) == 8 and fl.lattice.is_boolean()
    report = check_axioms(fl.op, BINARY_AXIOMS)
    profile = report.profile()
    holds = {Axiom.P1, Axiom.P2, Axiom.P3, Axiom.P4, Axiom.P5, Axiom.MP, Axiom.SEMI}
    assert {ax for ax, h in profile.items() if h} == holds
    assert {ax for ax, h in profile.items() if not h} == {
        Axiom.WM, Axiom.INV, Axiom.ID, Axiom.NORM, Axiom.NEGIMP, Axiom.FLAT}
    assert names_at(fl.lattice, report.checks[Axiom.NORM].witness) == ("{p0,p1,p3}", "{p0,p3}", "{p1,p3}")
    assert verify_pair_embedding(build_pair_frame(fl.lattice, fl.op)).ok
    space = build_fi_space(fl.lattice, fl.op)
    assert verify_fi_embedding(space).ok
    assert check_space_conditions(space.frame, space.basis).ok


def test_fallback_used_is_a_read_only_false():
    e = catalog.entry("residual-3chain")
    rep = verify_pair_embedding(build_pair_frame(e.lattice, e.conditional))
    assert rep.fallback_used is False
    with pytest.raises(AttributeError):
        rep.fallback_used = True


def _first_failing_law(L, T, frame, hat):
    """(law, a, b) at the first cell where hat does not carry a law."""
    for a in range(L.n):
        for b in range(L.n):
            if hat[L.meet(a, b)] != hat[a] & hat[b]:
                return "meet", a, b
            if hat[L.join(a, b)] != frame.closure(hat[a] | hat[b]):
                return "join", a, b
            if hat[T[a][b]] != frame.arrow(hat[a], hat[b]):
                return "conditional", a, b
    return None


def _reference_embedding_failures(L, T, frame, hat):
    """The embedding check cell by cell, worded as the filter-ideal route."""
    for a in range(L.n):
        if frame.closure(hat[a]) != hat[a]:
            return [f"hat({L.names[a]}) is not a fixpoint"] + (
                ["hat is not injective"] if len(set(hat)) != L.n else [])
    if len(set(hat)) != L.n:
        return ["hat is not injective"]
    first = _first_failing_law(L, T, frame, hat)
    if first is None:
        return []
    law, a, b = first
    return [f"{law} not carried at ({L.names[a]},{L.names[b]})"]


def _fi_case(name):
    e = catalog.entry(name)
    space = build_fi_space(e.lattice, e.conditional)
    return e.lattice, e.conditional.table, space.frame, list(space.basis)


def _pair_case():
    fl = fixpoints(random_frame(Random(4), 8))
    pf = build_pair_frame(fl.lattice, fl.op)
    hat = [sum(1 << i for i, (x, _) in enumerate(pf.points) if fl.lattice.leq(x, a))
           for a in range(fl.lattice.n)]
    return fl.lattice, fl.op.table, pf.frame, hat


@pytest.mark.parametrize("case", ("material-B4", "material-B8", "pair-seed4"))
def test_embedding_check_names_the_first_failing_law(case):
    L, T, frame, hat = _pair_case() if case == "pair-seed4" else _fi_case(case)
    assert (L.n ** 2 >= GRID_MIN_INSTANCES) == (case != "material-B4")
    rng = Random(case)
    seen = set()
    for _ in range(80):
        T2, hat2, cells = [list(row) for row in T], list(hat), {}
        kind = rng.randrange(5)
        if kind >= 3:    # two images swapped
            a, b = rng.sample(range(L.n), 2)
            hat2[a], hat2[b] = hat2[b], hat2[a]
        elif kind == 0:  # one table cell changed
            a, b = rng.randrange(L.n), rng.randrange(L.n)
            T2[a][b] = (T2[a][b] + 1 + rng.randrange(L.n - 1)) % L.n
        else:            # a closure of a union, or a conditional, answered wrong
            a, b = rng.randrange(L.n), rng.randrange(L.n)
            cell = (frame.full_mask, hat[a] | hat[b]) if kind == 1 else (hat[a], hat[b])
            if cell[1] in hat if kind == 1 else cell[0] == frame.full_mask:
                continue
            cells[cell] = 1 << rng.randrange(frame.m)
        fr = TamperedFrame(frame, cells)
        want = _reference_embedding_failures(L, T2, fr, hat2)
        got = _embedding_failures(L, T2, fr, hat2)
        assert got == want
        seen.update(w.split()[0] for w in want)
    assert {"meet", "join", "conditional"} <= seen


@pytest.mark.parametrize("case", ("material-B4", "material-B8", "pair-seed4"))
def test_embedding_check_names_a_meet_failing_alone(case):
    # swap two images, then answer the closure and the conditional at the
    # first failing cell the way the algebra does: only meet fails there
    L, T, frame, hat = _pair_case() if case == "pair-seed4" else _fi_case(case)
    alone = 0
    for a in range(L.n):
        for b in range(a + 1, L.n):
            hat2 = list(hat)
            hat2[a], hat2[b] = hat2[b], hat2[a]
            first = _first_failing_law(L, T, frame, hat2)
            if not first or first[0] != "meet":
                continue
            _, x, y = first
            u, v = hat2[x], hat2[y]
            fixes = {(frame.full_mask, u | v): frame.closure(u | v) ^ hat2[L.join(x, y)],
                     (u, v): frame.arrow(u, v) ^ hat2[T[x][y]]}
            fr = TamperedFrame(frame, fixes)
            want = _reference_embedding_failures(L, T, fr, hat2)
            if want != [f"meet not carried at ({L.names[x]},{L.names[y]})"]:
                continue
            assert _embedding_failures(L, T, fr, hat2) == want
            alone += 1
    assert alone >= 1


@pytest.mark.parametrize("name", ("material-B4", "material-B8"))
def test_structure_check_names_the_first_operation_leaving_the_family(name):
    e = catalog.entry(name)
    space = build_fi_space(e.lattice, e.conditional)
    frame, basis = space.frame, space.basis
    cofix = check_space_conditions(frame, basis).cofix
    opens = _open_sets(frame, basis)
    rng = Random(name)
    cells = [(frame.full_mask, u | v) for u in cofix for v in cofix if u | v not in cofix]
    cells += [(u, v) for u in cofix for v in cofix if u != frame.full_mask]
    seen = set()
    for cell in cells:
        # a closure no open fixpoint uses, or a conditional of two of them
        fr = TamperedFrame(frame, {cell: 1 << rng.randrange(frame.m)})
        rep = check_space_conditions(fr, basis)
        assert rep.cofix == cofix
        note = _structure_note(fr, opens, cofix)
        assert rep.cofix_structure == (note is None, note)
        seen.add(note and note.split()[0])
    assert {"join", "conditional"} <= seen


def test_fi_embedding_names_an_open_fixpoint_outside_the_image():
    # a loop at the point [0,1] makes the empty set closed as well as open
    e = catalog.entry("residual-3chain")
    space = build_fi_space(e.lattice, e.conditional)
    pred = [space.frame.predecessors(x) for x in range(space.frame.m)]
    pred[0] ^= 1
    frame = RelationalFrame(space.frame.names, pred)
    broken = FilterIdealSpace(space.lattice, space.op, space.pairs, frame, space.basis)
    with pytest.raises(EmbeddingNotVerified, match="open fixpoint {} lies outside") as exc:
        verify_fi_embedding(broken)
    assert exc.value.report.open_fixpoint_count == e.lattice.n + 1
    opens = _open_sets(frame, space.basis)
    assert [o for o in opens if frame.closure(o) == o and o not in space.basis] == [0]


def test_space_separation_can_fail_off_catalog():
    # two points with identical filter and ideal data: a two-point frame
    # with no edges and a one-set basis cannot separate them
    from condlat.frames import RelationalFrame
    fr = RelationalFrame(("a", "b"), (0, 0))
    rep = check_space_conditions(fr, (0b11,))
    assert not rep.separated[0]
    assert not rep.ok
