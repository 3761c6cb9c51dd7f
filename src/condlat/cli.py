"""Command line front end.

Subcommands: check, classify, frame, represent, selection, search,
prob, demo.  Exit codes: 0 all expectations met, 1 a check failed,
2 malformed input (with a line-numbered diagnostic on stderr) or a
usage error.

Reports are printed for people; ``--report FILE`` additionally writes
one `key=value ...` record per check for regression diffing, each run
of whitespace in a value written as `-`.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import product
from typing import NoReturn

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
                fields = " ".join(k + "=" + re.sub(r"\s+", "-", str(v)) for k, v in kv.items())
                fh.write(f"ok={str(ok).lower()} {fields}\n")

    def exit_code(self):
        return 1 if self.failures else 0


def _usage(msg) -> NoReturn:
    """Usage errors and unreadable input files exit with 2."""
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        _usage(exc)


def _axiom_list(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in _AXIOM_BY_NAME:
            _usage(f"unknown axiom {tok!r}; choose from the axioms of "
                   f"binary tables {', '.join(_AXIOM_BY_NAME)}")
        out.append(_AXIOM_BY_NAME[tok])
    return tuple(out)


def _need_conditional(doc: LatticeDocument):
    if doc.conditional is None:
        _usage("the lattice file carries no `op ->` table")
    return doc.conditional


def _dot(args, text: str):
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(text)


# -- plain commands -------------------------------------------------------

def cmd_check(args, run: Run) -> None:
    doc = parse_lattice(_read(args.file))
    op = _need_conditional(doc)
    axioms = _axiom_list(args.axioms) if args.axioms else BINARY_AXIOMS
    rep = check_axioms(op, axioms)
    for ax in axioms:
        c = rep[ax]
        print(c.describe(doc.lattice.names))
        run.rec(c.holds, file=args.file, check=ax.value,
                witness=",".join(map(str, c.witness)) if c.witness else "-",
                mode=c.mode)
    _dot(args, lattice_dot(doc.lattice, doc.name))


def cmd_classify(args, run: Run) -> None:
    doc = parse_lattice(_read(args.file))
    op = _need_conditional(doc)
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


def cmd_frame(args, run: Run) -> None:
    doc = parse_frame(_read(args.file))
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


def cmd_represent(args, run: Run) -> None:
    doc = parse_lattice(_read(args.file))
    op = _need_conditional(doc)
    try:
        pf = build_pair_frame(doc.lattice, op)
    except NotAPreconditional as exc:
        print(f"not a preconditional: {exc}")
        run.rec(False, file=args.file, check="preconditional")
        return

    print(f"pair frame: {pf.frame.m} points")
    try:
        ok, detail = verify_pair_embedding(pf).ok, "candidate map"
    except EmbeddingNotVerified as exc:
        ok, detail = False, str(exc)
    print(f"  lattice isomorphic to its fixpoints: {ok} ({detail})")
    run.rec(ok, file=args.file, check="pair-embedding", detail=detail)

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
    run.rec(ok2, file=args.file, check="space-embedding", detail=d2)

    cond = check_space_conditions(space.frame, space.basis)
    print(f"  space conditions: separated={cond.separated[0]} "
          f"structure={cond.cofix_structure[0]} pairs={cond.pairs_realized[0]} "
          f"relation={cond.relation_matches[0]}")
    run.rec(cond.ok, file=args.file, check="space-conditions")
    if args.dot:
        _dot(args, lattice_dot(fixpoints(space.frame).lattice, doc.name))


def cmd_selection(args, run: Run) -> None:
    doc = parse_selection(_read(args.file))
    if doc.defaulted:
        toks = [set_label(doc.frame, A) for A in doc.defaulted]
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


def cmd_search(args, run: Run) -> None:
    require = _axiom_list(args.require) if args.require else ()
    forbid = _axiom_list(args.forbid) if args.forbid else ()
    if args.minimal:
        _search_inventory(args, run, require, forbid)
        return
    doc = parse_lattice(_read(args.lattice))
    lattice, name = doc.lattice, doc.name
    try:
        spec = SearchSpec(lattice, require=require, forbid=forbid,
                          node_budget=args.budget, find_all=args.all)
    except ValueError as exc:
        _usage(exc)
    res = find_witness(spec)
    print(f"nodes={res.nodes} exhausted={res.exhausted} "
          f"witnesses={len(res.witnesses)}")
    for op in res.witnesses:
        print(serialize_lattice(LatticeDocument(name, lattice, op)), end="")
    run.rec(res.found, check="search", nodes=res.nodes,
            witnesses=len(res.witnesses), exhausted=res.exhausted)


def _search_inventory(args, run, require, forbid) -> None:
    """``search --minimal``: the first witness over the lattice inventory."""
    if args.all:
        _usage("--all needs --lattice")
    try:
        mw = minimal_witness(require, forbid, node_budget=args.budget)
    except ValueError as exc:
        _usage(exc)
    for label, nodes, exhausted in mw.trail:
        print(f"{label}: nodes={nodes} exhausted={exhausted}")
    if mw.found:
        lattice = mw.op.lattice
        print(f"witness on {mw.label} ({lattice.n} elements):")
        print(serialize_lattice(LatticeDocument(mw.label, lattice, mw.op)), end="")
    else:
        print(f"no witness on any of the {len(INVENTORY)} inventory lattices")
    run.rec(mw.found, check="search-minimal", lattice=mw.label or "-",
            lattices=len(mw.trail), nodes=sum(nodes for _, nodes, _ in mw.trail))


def _subset_arg(text: str, worlds: int) -> int:
    if text == "-":
        return 0
    toks = text.split(",")
    if not all(tok.strip().isdecimal() and int(tok) < worlds for tok in toks):
        _usage(f"subsets are comma-separated world indices 0..{worlds - 1},"
               f" got {text!r}")
    return sum(1 << w for w in {int(tok) for tok in toks})


def cmd_prob(args, run: Run) -> None:
    space = confidence_space()
    if args.action == "arrow":
        if args.a is None or args.b is None:
            _usage("prob arrow needs two subsets (comma lists or -)")
        if args.seed is not None:
            _usage("prob arrow takes no --seed")
        A, B = (_subset_arg(args.a, space.world_count),
                _subset_arg(args.b, space.world_count))
        out = space.arrow(A, B)
        worlds = [str(w) for w in range(space.world_count) if out >> w & 1]
        print(",".join(worlds) if worlds else "-")
        run.rec(True, check="arrow", a=args.a, b=args.b,
                result=",".join(worlds) or "-")
    else:
        if args.a is not None:
            _usage("prob verify takes no subsets")
        rep = verify_axioms(space, seed=args.seed or 0)
        for ax in (Axiom.P1, Axiom.P2, Axiom.P3, Axiom.P4, Axiom.P5,
                   Axiom.MP, Axiom.NORM):
            c = rep[ax]
            print(c.describe())
            expected = not c.holds if ax is Axiom.NORM else c.holds
            run.rec(expected, check=f"prob-{ax.value}", mode=c.mode,
                    instances=c.instances)
        print(f"table cross-checked against exact rationals on "
              f"{rep.crosschecked} cells")


# -- demo: the whole expectation suite, one check per anchor -------------

def _demo_checks(seed):
    """(anchor, check) pairs in replay order; check() returns ok or
    (ok, detail).  Listing the pairs runs no check: work that several
    checks share is done once, by the first check that needs it."""
    for e in catalog.ENTRIES:
        yield f"profile:{e.name}", partial(_profile, e)
        if e.label is not None:
            yield f"label:{e.name}", partial(_label, e)
        if e.expect_orthomodular is not None:
            yield f"orthomodular:{e.name}", partial(_orthomodular, e)
    yield "pinned:antichain-negation-import", _antichain_negation_import
    yield "pinned:twin-peaks-normality", _twin_peaks_normality
    yield "pinned:gate-normality-witness", partial(
        _pinned_witness, "gate-to-bottom-6", Axiom.NORM, ("a", "b", "c"))
    yield "pinned:tail-constant-mp-witness", partial(
        _pinned_witness, "tail-constant-4chain", Axiom.MP, ("b", "a"))
    for e in catalog.preconditional_entries():
        # derived negation of every catalog preconditional is a precomplementation
        yield f"derived-neg:{e.name}", lambda e=e: precomplementation_report(
            e.conditional.derive_negation()).ok
    yield "heyting:three-descriptions-3chain", _heyting_triple
    yield "frame:quad-fixpoints", _quad_fixpoints
    yield "frame:quad-49-entries", _quad_table
    for e in catalog.preconditional_entries():
        space = cache(partial(build_fi_space, e.lattice, e.conditional))
        yield f"pair:{e.name}", partial(_pair_embedding, e)
        yield f"space:{e.name}", partial(_fi_embedding, space)
        yield f"space-conditions:{e.name}", lambda space=space: (
            check_space_conditions(space().frame, space().basis).ok)
    for se in catalog.SELECTION_ENTRIES:
        yield f"selection:{se.name}", partial(_selection_properties, se)
    yield "selection:density-gap-p5", _density_gap_p5
    # round trips through the atom frame
    for anchor, worlds in (("selection:roundtrip-B4", ("p", "q")),
                           ("selection:roundtrip-B8", ("w0", "w1", "w2"))):
        yield anchor, partial(_roundtrip, worlds)
    yield "selection:select-all-gate", _select_all_gate
    space = cache(confidence_space)
    prob = cache(lambda: verify_axioms(space(), seed=seed))
    yield "prob:boundary-arithmetic", partial(_boundary_arithmetic, space)
    yield "prob:core-and-detachment", lambda: prob().ok
    yield "prob:normality-witness", lambda: (
        not prob()[Axiom.NORM].holds and prob()[Axiom.NORM].witness == NORM_WITNESS)
    P = PRECONDITIONAL_AXIOMS
    for ax, size in zip(P, (2, 2, 2, 3, 3)):
        yield f"search:forbid-{ax.value}", partial(_forbid_alone, ax, size)
    # pinned unique witnesses on the 2-chain
    yield "search:only-const-top", partial(
        _only_witness, P[1:], (P[0],), ((1, 1), (1, 1)))
    yield "search:only-meet", partial(
        _only_witness, P + (Axiom.MP,), (Axiom.WM,), ((0, 0), (0, 1)))
    yield "search:2chain-vs-bruteforce", _search_bruteforce
    laws = cache(partial(_random_frame_laws, seed))
    yield "frames:closure-laws-1000", lambda: laws()[0]
    yield "frames:induced-preconditional-1000", lambda: laws()[1]


def _profile(e):
    rep = check_axioms(e.conditional, tuple(e.profile))
    bad = [ax.value for ax in e.profile if rep[ax].holds != e.profile[ax]]
    return not bad, ",".join(bad) or "exact"


def _label(e):
    c = classify(e.conditional)
    return c.label is e.label, str(c.label)


def _orthomodular(e):
    holds = is_orthomodular(e.unary).holds
    return holds == e.expect_orthomodular, holds


def _antichain_negation_import():
    # not-(a -> c) = a and a -> not-c = not-a
    e = catalog.entry("sasaki-M4")
    L, T, neg = e.lattice, e.conditional.table, e.unary.table
    a, c = L.index("a"), L.index("c")
    return neg[T[a][c]] == a and T[a][neg[c]] == neg[a]


def _twin_peaks_normality():
    # (a -> b) and (a -> c) = 1 while a -> (b and c) = not-a
    e = catalog.entry("sasaki-twin-peaks")
    L, T, neg = e.lattice, e.conditional.table, e.unary.table
    a, b, c = L.index("a"), L.index("b"), L.index("c")
    return L.meet(T[a][b], T[a][c]) == L.top and T[a][L.meet(b, c)] == neg[a]


def _pinned_witness(name, ax, want):
    """ax fails on the entry's table, first at the named elements."""
    e = catalog.entry(name)
    c = check_axiom(e.conditional, ax)
    names = tuple(e.lattice.names[i] for i in c.witness or ())
    return not c.holds and names == want, ",".join(names)


def _heyting_triple():
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
    return residuated == full_axioms == four_axioms, f"{len(residuated)} tables"


def _quad_fixpoints():
    fe = catalog.frame_entry("quad-two-way")
    sets = fixpoints(fe.frame).sets
    return sets == fe.fixpoint_masks, len(sets)


def _quad_table():
    fe = catalog.frame_entry("quad-two-way")
    mask_of = dict(fe.table_order)
    return all(
        fe.frame.arrow(A, B) == mask_of[fe.table_names[i][j]]
        for i, (_, A) in enumerate(fe.table_order)
        for j, (_, B) in enumerate(fe.table_order)
    )


def _pair_embedding(e):
    return verify_pair_embedding(build_pair_frame(e.lattice, e.conditional)).ok, "candidate"


def _fi_embedding(space):
    frep = verify_fi_embedding(space())
    return frep.ok, f"{frep.open_fixpoint_count}-open-fixpoints"


def _selection_properties(se):
    rep = check_frame(se.frame)
    got = {k: getattr(rep, k)[0] for k in se.properties}
    return got == se.properties, (
        ",".join(k for k in got if got[k] != se.properties[k]) or "exact")


def _density_gap_p5():
    # dropping strong density admits a P5 violation
    op = induced_conditional(catalog.selection_entry("density-gap-3").frame)
    c = check_axiom(op, Axiom.P5)
    return not c.holds and c.witness == (6, 4, 0), c.witness


def _roundtrip(worlds):
    wo = from_well_order(worlds)
    op = induced_conditional(wo)
    return ba_to_selection(op.lattice, op).frame.rel == wo.rel


def _select_all_gate():
    # the non-functional frame is rejected at the negation-import gate
    op = induced_conditional(catalog.selection_entry("select-all-3").frame)
    try:
        ba_to_selection(op.lattice, op)
    except PreconditionFailed as exc:
        return "NEGIMP" in str(exc)
    return False, "accepted"


def _boundary_arithmetic(space):
    A, B, C, _w = NORM_WITNESS
    return (space().cond_prob(0, B, A) == Fraction(9, 10)
            and space().cond_prob(0, C, A) == Fraction(9, 10)
            and space().cond_prob(0, B & C, A) == Fraction(4, 5))


def _forbid_alone(ax, size):
    """The first inventory lattice where ax fails and the other core axioms
    hold has the expected number of elements."""
    P = PRECONDITIONAL_AXIOMS
    mw = minimal_witness(tuple(a for a in P if a is not ax), (ax,))
    sizes = {"point": 1, "chain2": 2, "chain3": 3}
    return mw.found and sizes.get(mw.label) == size, mw.label


def _only_witness(require, forbid, table):
    res = find_witness(SearchSpec(chain(2, ("0", "1")), require=require,
                                  forbid=forbid, find_all=True))
    return [op.table for op in res.witnesses] == [table]


def _search_bruteforce():
    """The search agrees with brute force over every require/forbid split
    of seven axioms on the 2-chain."""
    c2 = chain(2, ("0", "1"))
    axes = PRECONDITIONAL_AXIOMS + (Axiom.MP, Axiom.WM)
    profiles = {}
    for bits in range(16):
        rows = ((bits & 1, bits >> 1 & 1), (bits >> 2 & 1, bits >> 3 & 1))
        rep = check_axioms(ConditionalOp(c2, rows), axes)
        profiles[rows] = {ax: rep[ax].holds for ax in axes}
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
        if sorted(op.table for op in res.witnesses) != want:
            return False, "2187-specs"
    return True, "2187-specs"


def _random_frame_laws(seed):
    """(closure laws hold, induced conditionals are preconditionals) over
    1000 random frames of 1-8 points."""
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
        if not check_axioms(fixpoints(fr).op, PRECONDITIONAL_AXIOMS).ok:
            precond_ok = False
    return closure_ok, precond_ok


def cmd_demo(args, run: Run) -> None:
    for anchor, check in _demo_checks(args.seed):
        if args.filter and args.filter not in anchor:
            continue
        try:
            result = check()
        except CondlatError as exc:
            # one failing check must never abort the run
            result = False, exc
        kv = {"anchor": anchor}
        if isinstance(result, tuple):
            result, kv["detail"] = result
        run.rec(result, **kv)
        detail = kv.get("detail", "")
        print(f"{'PASS' if result else 'FAIL'} {anchor}"
              + (f" ({detail})" if detail != "" else ""))
    print(f"{len(run.records)} checks, {run.failures} failures")


# -- wiring ---------------------------------------------------------------

def _common(sub, dot=False):
    if dot:
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

    s = _common(subs.add_parser("check", help="axiom checks on a lattice file"), dot=True)
    s.add_argument("file")
    s.add_argument("--axioms", help="comma list, default all")
    s.set_defaults(func=cmd_check)

    s = _common(subs.add_parser("classify", help="most specific class label"), dot=True)
    s.add_argument("file")
    s.set_defaults(func=cmd_classify)

    s = _common(subs.add_parser("frame", help="fixpoints of a frame file"), dot=True)
    s.add_argument("file")
    s.set_defaults(func=cmd_frame)

    s = _common(subs.add_parser("represent", help="run both representations"), dot=True)
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
    s.add_argument("--seed", type=int,
                   help="prob verify: picks the cells cross-checked on exact rationals")
    s.set_defaults(func=cmd_prob)

    s = _common(subs.add_parser("demo", help="run the whole expectation suite"))
    s.add_argument("--filter", help="only anchors containing this substring")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_demo)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = Run()
    try:
        args.func(args, run)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        # a search ran out of nodes: a failed check, not malformed input
        print(f"budget exhausted: {exc}")
        run.rec(False, check="search", detail="budget-exhausted")
    except CondlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    run.write(args.report)
    return run.exit_code()


if __name__ == "__main__":
    sys.exit(main())
