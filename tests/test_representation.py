from random import Random

import pytest

from condlat import catalog
from condlat.errors import EmbeddingNotVerified, NotAPreconditional, TooLarge
from condlat.frames import RelationalFrame, fixpoints, random_frame
from condlat.lattice import MAX_ELEMENTS
from condlat.ops import ConditionalOp
from condlat.representation import (
    FilterIdealSpace,
    build_fi_space,
    build_pair_frame,
    check_space_conditions,
    consonant,
    verify_fi_embedding,
    verify_pair_embedding,
)

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


def test_space_conditions_match_the_oracle_on_random_bases():
    rng = Random(5)
    notes = []
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
    # the cases cover a structure that holds and both ways it can fail
    assert None in notes
    assert any(n and "leaves the family" in n for n in notes)
    assert any(n and "not a union" in n for n in notes)


@pytest.mark.parametrize("seed", (2, 4, 22))
def test_fi_route_decides_fixpoint_algebras_of_eight_point_frames(seed):
    # seeds 2 and 22: 33 and 42 elements on 300 and 448 consonant pairs
    fl = fixpoints(random_frame(Random(seed), 8))
    space = build_fi_space(fl.lattice, fl.op)
    rep = verify_fi_embedding(space)
    assert rep.ok and rep.open_fixpoint_count == fl.lattice.n
    cond = check_space_conditions(space.frame, space.basis)
    assert cond.ok and len(cond.cofix) == fl.lattice.n
    assert (seed, fl.lattice.n) in ((2, 33), (4, 18), (22, 42))


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
