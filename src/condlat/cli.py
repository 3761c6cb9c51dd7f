"""Command line front end.

Subcommands: check, classify, frame, represent, selection, search,
prob, demo.  Exit codes: 0 all expectations met, 1 a check failed,
2 malformed input (with a line-numbered diagnostic on stderr).

Reports are printed for people; ``--report FILE`` additionally writes
one `key=value ...` record per check for regression diffing.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import product

from . import catalog
from .errors import (
    BudgetExhausted,
    CondlatError,
    EmbeddingNotVerified,
    NotAPreconditional,
    ParseError,
    PreconditionFailed,
)
from .frames import fixpoints, random_frame, set_label
from .io import (
    lattice_dot,
    parse_frame,
    parse_lattice,
    parse_selection,
    serialize_lattice,
    LatticeDocument,
)
from .lattice import chain
from .ops import (
    BINARY_AXIOMS,
    PRECONDITIONAL_AXIOMS,
    Axiom,
    ConditionalOp,
    check_axiom,
    check_axioms,
    classify,
    is_orthomodular,
    precomplementation_report,
    residuation_witness,
)
from .probabilistic import NORM_WITNESS, confidence_space, verify_axioms
from .representation import (
    build_fi_space,
    build_pair_frame,
    check_space_conditions,
    verify_fi_embedding,
    verify_pair_embedding,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    INVENTORY,
    SearchSpec,
    find_witness,
    minimal_witness,
)
from .selection import (
    ba_to_selection,
    check_frame,
    from_well_order,
    induced_conditional,
)
from random import Random

_AXIOM_BY_NAME = {ax.value: ax for ax in BINARY_AXIOMS}


class Run:
    """Collected check records; the exit code falls out of them."""

    def __init__(self):
        self.records = []

    def rec(self, ok: bool, **kv):
        self.records.append((bool(ok), kv))
        return ok

    @property
    def failures(self):
        return sum(1 for ok, _ in self.records if not ok)

    def write(self, path):
        if not path:
            return
        with open(path, "w") as fh:
            for ok, kv in self.records:
                fields = " ".join(f"{k}={v}" for k, v in kv.items())
                fh.write(f"ok={str(ok).lower()} {fields}\n")

    def exit_code(self):
        return 1 if self.failures else 0


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _axiom_list(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in _AXIOM_BY_NAME:
            print(f"error: unknown axiom {tok!r}; choose from the axioms of "
                  f"binary tables {', '.join(_AXIOM_BY_NAME)}", file=sys.stderr)
            raise SystemExit(2)
        out.append(_AXIOM_BY_NAME[tok])
    return tuple(out)


def _need_conditional(doc: LatticeDocument):
    if doc.conditional is None:
        print("error: the lattice file carries no `op ->` table", file=sys.stderr)
        raise SystemExit(2)
    return doc.conditional


def _dot(args, text: str):
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(text)


# -- plain commands -------------------------------------------------------

def cmd_check(args) -> int:
    doc = parse_lattice(_read(args.file))
    op = _need_conditional(doc)
    axioms = _axiom_list(args.axioms) if args.axioms else BINARY_AXIOMS
    run = Run()
    rep = check_axioms(op, axioms)
    for ax in axioms:
        c = rep[ax]
        print(c.describe(doc.lattice.names))
        run.rec(c.holds, file=args.file, check=ax.value,
                witness=",".join(map(str, c.witness)) if c.witness else "-",
                mode=c.mode)
    _dot(args, lattice_dot(doc.lattice, doc.name))
    run.write(args.report)
    return run.exit_code()


def cmd_classify(args) -> int:
    doc = parse_lattice(_read(args.file))
    op = _need_conditional(doc)
    run = Run()
    c = classify(op)
    print(f"{doc.name}: {c.label}")
    for ax, holds in c.profile.items():
        print(f"  {ax.value}: {'holds' if holds else 'fails'}")
    run.rec(True, file=args.file, check="classify", label=str(c.label))
    if doc.unary is not None:
        pre = precomplementation_report(doc.unary)
        print(f"  unary op is a precomplementation: {pre.ok}")
        run.rec(True, file=args.file, check="precomplementation", ok2=pre.ok)
    _dot(args, lattice_dot(doc.lattice, doc.name))
    run.write(args.report)
    return run.exit_code()


def cmd_frame(args) -> int:
    doc = parse_frame(_read(args.file))
    run = Run()
    fl = fixpoints(doc.frame)
    labels = [set_label(doc.frame, s) for s in fl.sets]
    print(f"{doc.name}: {len(fl.sets)} fixpoints")
    for lab in labels:
        print(f"  {lab}")
    width = max(len(x) for x in labels) + 1
    print("conditional on fixpoints:")
    print(" " * width + "".join(x.ljust(width) for x in labels))
    for i, row in enumerate(fl.op.table):
        print(labels[i].ljust(width)
              + "".join(labels[v].ljust(width) for v in row))
    run.rec(True, file=args.file, check="fixpoints", count=len(fl.sets))
    _dot(args, lattice_dot(fl.lattice, doc.name))
    run.write(args.report)
    return run.exit_code()


def cmd_represent(args) -> int:
    doc = parse_lattice(_read(args.file))
    op = _need_conditional(doc)
    run = Run()
    try:
        pf = build_pair_frame(doc.lattice, op)
    except (NotAPreconditional, PreconditionFailed) as exc:
        print(f"not a preconditional: {exc}")
        run.rec(False, file=args.file, check="preconditional")
        run.write(args.report)
        return run.exit_code()

    print(f"pair frame: {pf.frame.m} points")
    try:
        prep = verify_pair_embedding(pf)
        ok = prep.ok
        detail = "fallback isomorphism" if prep.fallback_used else "candidate map"
    except EmbeddingNotVerified as exc:
        ok, detail = False, str(exc)
    print(f"  lattice isomorphic to its fixpoints: {ok} ({detail})")
    run.rec(ok, file=args.file, check="pair-embedding", detail=detail.replace(" ", "-"))

    space = build_fi_space(doc.lattice, op)
    print(f"filter-ideal space: {space.frame.m} points")
    for f, i in space.pairs:
        print(f"  [{doc.lattice.names[f]},{doc.lattice.names[i]}]")
    try:
        frep = verify_fi_embedding(space)
        ok2, d2 = frep.ok, f"image=open-fixpoints({frep.open_fixpoint_count})"
    except EmbeddingNotVerified as exc:
        ok2, d2 = False, str(exc)
    print(f"  embedding onto open fixpoints: {ok2}")
    run.rec(ok2, file=args.file, check="space-embedding", detail=d2.replace(" ", "-"))

    cond = check_space_conditions(space.frame, space.basis)
    print(f"  space conditions: separated={cond.separated[0]} "
          f"structure={cond.cofix_structure[0]} pairs={cond.pairs_realized[0]} "
          f"relation={cond.relation_matches[0]}")
    run.rec(cond.ok, file=args.file, check="space-conditions")
    if args.dot:
        _dot(args, lattice_dot(fixpoints(space.frame).lattice, doc.name))
    run.write(args.report)
    return run.exit_code()


def cmd_selection(args) -> int:
    doc = parse_selection(_read(args.file))
    run = Run()
    if doc.defaulted:
        toks = [set_label_sel(doc.frame, A) for A in doc.defaulted]
        print(f"defaulted to bare centering: {' '.join(toks)}")
    rep = check_frame(doc.frame)
    for prop in ("success", "centering", "functionality", "strong_density"):
        holds, wit = getattr(rep, prop)
        print(f"{prop}: {'holds' if holds else f'fails at {wit}'}")
        # the definition requires the first two; the rest are findings
        run.rec(holds or prop in ("functionality", "strong_density"),
                file=args.file, check=prop, holds=holds)
    op = induced_conditional(doc.frame)
    c = classify(op)
    print(f"induced conditional: {c.label}")
    extra = check_axioms(op, (Axiom.ID, Axiom.NORM, Axiom.FLAT))
    for ax in (Axiom.ID, Axiom.NORM, Axiom.FLAT):
        print(f"  {ax.value}: {'holds' if extra[ax].holds else 'fails'}")
    run.rec(True, file=args.file, check="induced-label", label=str(c.label))
    run.write(args.report)
    return run.exit_code()


def set_label_sel(frame, mask: int) -> str:
    names = [frame.names[i] for i in range(frame.k) if mask >> i & 1]
    return "{" + ",".join(names) + "}"


def cmd_search(args) -> int:
    require = _axiom_list(args.require) if args.require else ()
    forbid = _axiom_list(args.forbid) if args.forbid else ()
    if args.minimal:
        return _search_inventory(args, require, forbid)
    doc = parse_lattice(_read(args.lattice))
    lattice, name = doc.lattice, doc.name
    run = Run()
    try:
        spec = SearchSpec(lattice, require=require, forbid=forbid,
                          node_budget=args.budget, find_all=args.all)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        res = find_witness(spec)
    except BudgetExhausted as exc:
        return _budget_exhausted(args, run, exc)
    print(f"nodes={res.nodes} exhausted={res.exhausted} "
          f"witnesses={len(res.witnesses)}")
    for op in res.witnesses:
        print(serialize_lattice(LatticeDocument(name, lattice, op)), end="")
    run.rec(res.found, check="search", nodes=res.nodes,
            witnesses=len(res.witnesses), exhausted=res.exhausted)
    run.write(args.report)
    return run.exit_code()


def _search_inventory(args, require, forbid) -> int:
    """``search --minimal``: the first witness over the lattice inventory."""
    if args.all:
        print("error: --all needs --lattice", file=sys.stderr)
        raise SystemExit(2)
    run = Run()
    try:
        mw = minimal_witness(require, forbid, node_budget=args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except BudgetExhausted as exc:
        return _budget_exhausted(args, run, exc)
    for label, nodes, exhausted in mw.trail:
        print(f"{label}: nodes={nodes} exhausted={exhausted}")
    if mw.found:
        lattice = mw.op.lattice
        print(f"witness on {mw.label} ({lattice.n} elements):")
        print(serialize_lattice(LatticeDocument(mw.label, lattice, mw.op)), end="")
    else:
        print(f"no witness on any of the {len(INVENTORY)} inventory lattices")
    run.rec(mw.found, check="search-minimal", lattice=mw.label or "-",
            lattices=len(mw.trail))
    run.write(args.report)
    return run.exit_code()


def _budget_exhausted(args, run, exc) -> int:
    print(f"budget exhausted: {exc}")
    run.rec(False, check="search", detail="budget-exhausted")
    run.write(args.report)
    return run.exit_code()


def _subset_arg(text: str, worlds: int) -> int:
    if text == "-":
        return 0
    toks = text.split(",")
    if not all(tok.strip().isdecimal() and int(tok) < worlds for tok in toks):
        print(f"error: subsets are comma-separated world indices 0..{worlds - 1},"
              f" got {text!r}", file=sys.stderr)
        raise SystemExit(2)
    return sum(1 << w for w in {int(tok) for tok in toks})


def cmd_prob(args) -> int:
    space = confidence_space()
    run = Run()
    if args.action == "arrow":
        if args.a is None or args.b is None:
            print("error: prob arrow needs two subsets (comma lists or -)",
                  file=sys.stderr)
            raise SystemExit(2)
        A, B = (_subset_arg(args.a, space.world_count),
                _subset_arg(args.b, space.world_count))
        out = space.arrow(A, B)
        worlds = [str(w) for w in range(space.world_count) if out >> w & 1]
        print(",".join(worlds) if worlds else "-")
        run.rec(True, check="arrow", a=args.a, b=args.b,
                result=",".join(worlds) or "-")
    else:
        rep = verify_axioms(space, seed=args.seed)
        for ax in (Axiom.P1, Axiom.P2, Axiom.P3, Axiom.P4, Axiom.P5,
                   Axiom.MP, Axiom.NORM):
            c = rep[ax]
            print(c.describe())
            expected = not c.holds if ax is Axiom.NORM else c.holds
            run.rec(expected, check=f"prob-{ax.value}", mode=c.mode,
                    instances=c.instances)
        print(f"table cross-checked against exact rationals on "
              f"{rep.crosschecked} cells")
    run.write(args.report)
    return run.exit_code()


# -- demo: the whole expectation suite, keyed by anchor -------------------

def _demo_profiles(run):
    for e in catalog.ENTRIES:
        rep = check_axioms(e.conditional, tuple(e.profile))
        bad = [ax.value for ax in e.profile if rep[ax].holds != e.profile[ax]]
        run.rec(not bad, anchor=f"profile:{e.name}",
                detail=",".join(bad) or "exact")
        if e.label is not None:
            c = classify(e.conditional)
            run.rec(c.label is e.label, anchor=f"label:{e.name}",
                    detail=str(c.label))
        if e.expect_orthomodular is not None:
            om = is_orthomodular(e.unary)
            run.rec(om.holds == e.expect_orthomodular,
                    anchor=f"orthomodular:{e.name}", detail=om.holds)


def _demo_pinned_values(run):
    # negation import on the antichain: not-(a -> c) = a, a -> not-c = not-a
    e = catalog.entry("sasaki-M4")
    L, T = e.lattice, e.conditional.table
    neg = e.unary.table
    a, c = L.index("a"), L.index("c")
    run.rec(neg[T[a][c]] == a and T[a][neg[c]] == neg[a],
            anchor="pinned:antichain-negation-import")
    # twin peaks: (a->b) and (a->c) = 1 while a->(b and c) = not-a
    e = catalog.entry("sasaki-twin-peaks")
    L, T, neg = e.lattice, e.conditional.table, e.unary.table
    a, b, c = L.index("a"), L.index("b"), L.index("c")
    run.rec(L.meet(T[a][b], T[a][c]) == L.top and T[a][L.meet(b, c)] == neg[a],
            anchor="pinned:twin-peaks-normality")
    # gate-to-bottom: normality dies exactly at (a, b, c)
    e = catalog.entry("gate-to-bottom-6")
    c6 = check_axiom(e.conditional, Axiom.NORM)
    names = tuple(e.lattice.names[i] for i in c6.witness or ())
    run.rec(not c6.holds and names == ("a", "b", "c"),
            anchor="pinned:gate-normality-witness", detail=",".join(names))
    # detachment failure of the tail-constant table sits at (b, a)
    e = catalog.entry("tail-constant-4chain")
    cmp_ = check_axiom(e.conditional, Axiom.MP)
    names = tuple(e.lattice.names[i] for i in cmp_.witness or ())
    run.rec(not cmp_.holds and names == ("b", "a"),
            anchor="pinned:tail-constant-mp-witness", detail=",".join(names))
    # derived negation of every catalog preconditional is a precomplementation
    for e in catalog.preconditional_entries():
        pre = precomplementation_report(e.conditional.derive_negation())
        run.rec(pre.ok, anchor=f"derived-neg:{e.name}")


def _demo_heyting_triple(run):
    """On the 3-chain, three descriptions cut out the same tables."""
    L = chain(3, ("0", "h", "1"))
    residuated, full_axioms, four_axioms = set(), set(), set()
    for cells in product(range(3), repeat=9):
        rows = (cells[0:3], cells[3:6], cells[6:9])
        op = ConditionalOp(L, rows)
        if residuation_witness(op) is None:
            residuated.add(rows)
        if check_axioms(op, PRECONDITIONAL_AXIOMS + (Axiom.MP, Axiom.WM)).ok:
            full_axioms.add(rows)
        if check_axioms(op, (Axiom.P3, Axiom.P4, Axiom.MP, Axiom.WM)).ok:
            four_axioms.add(rows)
    run.rec(residuated == full_axioms == four_axioms,
            anchor="heyting:three-descriptions-3chain",
            detail=f"{len(residuated)} tables")


def _demo_frame(run):
    fe = catalog.frame_entry("quad-two-way")
    fl = fixpoints(fe.frame)
    run.rec(fl.sets == fe.fixpoint_masks, anchor="frame:quad-fixpoints",
            detail=len(fl.sets))
    mask_of = dict(fe.table_order)
    ok = all(
        fe.frame.arrow(A, B) == mask_of[fe.table_names[i][j]]
        for i, (_, A) in enumerate(fe.table_order)
        for j, (_, B) in enumerate(fe.table_order)
    )
    run.rec(ok, anchor="frame:quad-49-entries")


def _demo_representation(run):
    for e in catalog.preconditional_entries():
        try:
            pf = build_pair_frame(e.lattice, e.conditional)
            prep = verify_pair_embedding(pf)
            run.rec(prep.ok, anchor=f"pair:{e.name}",
                    detail="fallback" if prep.fallback_used else "candidate")
        except CondlatError as exc:
            run.rec(False, anchor=f"pair:{e.name}", detail=exc)
            continue
        try:
            space = build_fi_space(e.lattice, e.conditional)
            frep = verify_fi_embedding(space)
            run.rec(frep.ok, anchor=f"space:{e.name}",
                    detail=f"{frep.open_fixpoint_count}-open-fixpoints")
            cond = check_space_conditions(space.frame, space.basis)
            run.rec(cond.ok, anchor=f"space-conditions:{e.name}")
        except CondlatError as exc:
            run.rec(False, anchor=f"space:{e.name}", detail=exc)


def _demo_selection(run):
    for se in catalog.SELECTION_ENTRIES:
        rep = check_frame(se.frame)
        got = {k: getattr(rep, k)[0] for k in se.properties}
        run.rec(got == se.properties, anchor=f"selection:{se.name}",
                detail=",".join(k for k in got if got[k] != se.properties[k])
                or "exact")
    # dropping strong density admits a P5 violation
    gap = catalog.selection_entry("density-gap-3")
    op = induced_conditional(gap.frame)
    c = check_axiom(op, Axiom.P5)
    run.rec(not c.holds and c.witness == (6, 4, 0),
            anchor="selection:density-gap-p5", detail=c.witness)
    # round trips through the atom frame
    for anchor, worlds in (("selection:roundtrip-B4", ("p", "q")),
                           ("selection:roundtrip-B8", ("w0", "w1", "w2"))):
        wo = from_well_order(worlds)
        op = induced_conditional(wo)
        model = ba_to_selection(op.lattice, op)
        run.rec(model.frame.rel == wo.rel, anchor=anchor)
    # the non-functional frame is rejected at the negation-import gate
    sa = catalog.selection_entry("select-all-3")
    op = induced_conditional(sa.frame)
    try:
        ba_to_selection(op.lattice, op)
        run.rec(False, anchor="selection:select-all-gate", detail="accepted")
    except PreconditionFailed as exc:
        run.rec("NEGIMP" in str(exc), anchor="selection:select-all-gate")


def _demo_prob(run, seed):
    space = confidence_space()
    A, B, C, w = NORM_WITNESS
    run.rec(space.cond_prob(0, B, A) == Fraction(9, 10)
            and space.cond_prob(0, C, A) == Fraction(9, 10)
            and space.cond_prob(0, B & C, A) == Fraction(4, 5),
            anchor="prob:boundary-arithmetic")
    rep = verify_axioms(space, seed=seed)
    run.rec(rep.ok, anchor="prob:core-and-detachment")
    run.rec(not rep[Axiom.NORM].holds and rep[Axiom.NORM].witness == NORM_WITNESS,
            anchor="prob:normality-witness")


def _demo_search(run):
    P = PRECONDITIONAL_AXIOMS
    expect_size = {Axiom.P1: 2, Axiom.P2: 2, Axiom.P3: 2, Axiom.P4: 3, Axiom.P5: 3}
    sizes = {"point": 1, "chain2": 2, "chain3": 3}
    for ax in P:
        mw = minimal_witness(tuple(a for a in P if a is not ax), (ax,))
        run.rec(mw.found and sizes.get(mw.label) == expect_size[ax],
                anchor=f"search:forbid-{ax.value}", detail=mw.label)
    # pinned unique witnesses on the 2-chain
    c2 = chain(2, ("0", "1"))
    res = find_witness(SearchSpec(c2, require=P[1:], forbid=(P[0],), find_all=True))
    run.rec([op.table for op in res.witnesses] == [((1, 1), (1, 1))],
            anchor="search:only-const-top")
    res = find_witness(SearchSpec(c2, require=P + (Axiom.MP,),
                                  forbid=(Axiom.WM,), find_all=True))
    run.rec([op.table for op in res.witnesses] == [((0, 0), (0, 1))],
            anchor="search:only-meet")
    # brute force agreement over every require/forbid split of 7 axioms
    axes = P + (Axiom.MP, Axiom.WM)
    profiles = {}
    for bits in range(16):
        rows = ((bits & 1, bits >> 1 & 1), (bits >> 2 & 1, bits >> 3 & 1))
        op = ConditionalOp(c2, rows)
        rep = check_axioms(op, axes)
        profiles[rows] = {ax: rep[ax].holds for ax in axes}
    agree = True
    for split in range(3 ** 7):
        req, forb, s = [], [], split
        for ax in axes:
            s, r = divmod(s, 3)
            if r == 1:
                req.append(ax)
            elif r == 2:
                forb.append(ax)
        want = sorted(
            rows for rows, prof in profiles.items()
            if all(prof[ax] for ax in req) and not any(prof[ax] for ax in forb)
        )
        res = find_witness(SearchSpec(c2, require=req, forbid=forb, find_all=True))
        got = sorted(op.table for op in res.witnesses)
        if got != want:
            agree = False
            break
    run.rec(agree, anchor="search:2chain-vs-bruteforce", detail="2187-specs")


def _demo_properties(run, seed):
    rng = Random(seed)
    closure_ok = precond_ok = True
    for _ in range(1000):
        m = rng.randint(1, 8)
        fr = random_frame(rng, m)
        full = fr.full_mask
        for _ in range(8):
            A = rng.randrange(full + 1)
            B = rng.randrange(full + 1)
            cA, cB = fr.closure(A), fr.closure(B)
            if not (A | cA == cA and fr.closure(cA) == cA):
                closure_ok = False
            if A & ~B == 0 and cA & ~cB != 0:
                closure_ok = False
        fl = fixpoints(fr)
        rep = check_axioms(fl.op, PRECONDITIONAL_AXIOMS)
        if not rep.ok:
            precond_ok = False
    run.rec(closure_ok, anchor="frames:closure-laws-1000")
    run.rec(precond_ok, anchor="frames:induced-preconditional-1000")


def _entry_anchors(prefixes, entries):
    return [f"{p}:{e.name}" for e in entries for p in prefixes]


def _demo_sections(args):
    """(name, anchors the section can emit, callable).  The anchor lists
    let --filter skip whole sections instead of hiding their output."""
    pe = catalog.preconditional_entries
    return (
        ("profiles",
         lambda: _entry_anchors(("profile", "label", "orthomodular"),
                                catalog.ENTRIES),
         _demo_profiles),
        ("pinned",
         lambda: ["pinned:antichain-negation-import",
                  "pinned:twin-peaks-normality",
                  "pinned:gate-normality-witness",
                  "pinned:tail-constant-mp-witness"]
                 + _entry_anchors(("derived-neg",), pe()),
         _demo_pinned_values),
        ("heyting",
         lambda: ["heyting:three-descriptions-3chain"],
         _demo_heyting_triple),
        ("frame",
         lambda: ["frame:quad-fixpoints", "frame:quad-49-entries"],
         _demo_frame),
        ("representation",
         lambda: _entry_anchors(("pair", "space", "space-conditions"), pe()),
         _demo_representation),
        ("selection",
         lambda: [f"selection:{se.name}" for se in catalog.SELECTION_ENTRIES]
                 + ["selection:density-gap-p5", "selection:roundtrip-B4",
                    "selection:roundtrip-B8", "selection:select-all-gate"],
         _demo_selection),
        ("prob",
         lambda: ["prob:boundary-arithmetic", "prob:core-and-detachment",
                  "prob:normality-witness"],
         lambda r: _demo_prob(r, args.seed)),
        ("search",
         lambda: [f"search:forbid-{ax.value}" for ax in PRECONDITIONAL_AXIOMS]
                 + ["search:only-const-top", "search:only-meet",
                    "search:2chain-vs-bruteforce"],
         _demo_search),
        ("properties",
         lambda: ["frames:closure-laws-1000",
                  "frames:induced-preconditional-1000"],
         lambda r: _demo_properties(r, args.seed)),
    )


def cmd_demo(args) -> int:
    run = Run()
    for name, anchors, section in _demo_sections(args):
        if args.filter:
            candidates = list(anchors()) + [f"section:{name}"]
            if not any(args.filter in a for a in candidates):
                continue
        try:
            section(run)
        except CondlatError as exc:
            # a section must never abort the run; record and move on
            run.rec(False, anchor=f"section:{name}", detail=exc)
    shown = failures = 0
    for ok, kv in run.records:
        anchor = kv.get("anchor", "?")
        if args.filter and args.filter not in anchor:
            continue
        shown += 1
        failures += not ok
        detail = kv.get("detail", "")
        print(f"{'PASS' if ok else 'FAIL'} {anchor}"
              + (f" ({detail})" if detail != "" else ""))
    print(f"{shown} checks, {failures} failures")
    run.write(args.report)
    return 1 if failures else 0


# -- wiring ---------------------------------------------------------------

def _common(sub):
    sub.add_argument("--dot", metavar="FILE", help="write a DOT rendering")
    sub.add_argument("--report", metavar="FILE",
                     help="write key=value records, one check per line")
    return sub


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="condlat",
        description="finite lattices with conditional operations: "
                    "checks, classification, frames, representation, "
                    "selection, probabilistic and search tooling",
    )
    subs = p.add_subparsers(dest="command", required=True)

    s = _common(subs.add_parser("check", help="axiom checks on a lattice file"))
    s.add_argument("file")
    s.add_argument("--axioms", help="comma list, default all")
    s.set_defaults(func=cmd_check)

    s = _common(subs.add_parser("classify", help="most specific class label"))
    s.add_argument("file")
    s.set_defaults(func=cmd_classify)

    s = _common(subs.add_parser("frame", help="fixpoints of a frame file"))
    s.add_argument("file")
    s.set_defaults(func=cmd_frame)

    s = _common(subs.add_parser("represent", help="run both representations"))
    s.add_argument("file")
    s.set_defaults(func=cmd_represent)

    s = _common(subs.add_parser("selection", help="selection frame properties"))
    s.add_argument("file")
    s.set_defaults(func=cmd_selection)

    s = _common(subs.add_parser("search", help="find tables by axiom profile"))
    where = s.add_mutually_exclusive_group(required=True)
    where.add_argument("--lattice", metavar="FILE", help="search this lattice")
    where.add_argument("--minimal", action="store_true",
                       help="walk the lattice inventory in size order and "
                            "stop at the first lattice with a witness")
    s.add_argument("--require", help="comma list of axioms that must hold")
    s.add_argument("--forbid", help="comma list of axioms that must fail")
    s.add_argument("--all", action="store_true", help="enumerate every witness")
    s.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help=f"node budget per lattice (default {DEFAULT_NODE_BUDGET})")
    s.set_defaults(func=cmd_search)

    s = _common(subs.add_parser("prob", help="threshold-confidence conditional"))
    s.add_argument("action", choices=("verify", "arrow"))
    s.add_argument("a", nargs="?", help="antecedent worlds, comma list or -")
    s.add_argument("b", nargs="?", help="consequent worlds, comma list or -")
    s.add_argument("--seed", type=int, default=0,
                   help="picks the table cells cross-checked on exact rationals")
    s.set_defaults(func=cmd_prob)

    s = _common(subs.add_parser("demo", help="run the whole expectation suite"))
    s.add_argument("--filter", help="only anchors containing this substring")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_demo)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CondlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
