"""The four workloads: inputs generated from a seed, one verdict per input.

A verdict is one closed-loop request to condlat: ``run(call)`` makes the
package calls (the only timed part), ``answer(raw)`` turns what came back
into plain values, and the benchmark compares them with ``expected``,
which comes from ``oracle`` (the definitions, by brute force), from the
pinned catalog values, or from a theorem.  Every package call goes
through ``call(span_name, function, *args)`` so a traced run can put a
span around it.

Why these four (each stresses other layers):

* frame-algebras: fixpoint assembly plus axiom checks on algebras of up
  to about 50 elements, where ternary checks are sampled; the
  distribution of the release gate's random-frame criterion, plus the
  Boolean selection round trips on 8 to 64 elements, and the catalog
  through both representation routes and the fixtures through the
  parser.
* table-census: tens of thousands of checks on 3-element tables, where
  per-call overhead dominates.  Nothing else: a few dozen slower
  verdicts among them would sit exactly at its p99.9.
* search-profiles: the model finder, with almost no axiom checking.
* confidence-space: numpy tables and verify_axioms, with no lattice code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np

from condlat import catalog
from condlat.frames import fixpoints, random_frame
from condlat.io import FrameDocument, LatticeDocument, load_document
from condlat.lattice import chain
from condlat.ops import (
    BINARY_AXIOMS,
    PRECONDITIONAL_AXIOMS,
    Axiom,
    ConditionalOp,
    check_axiom,
    classify,
    residuation_witness,
)
from condlat.probabilistic import NORM_WITNESS, arrow_table, confidence_space, verify_axioms
from condlat.representation import (
    build_fi_space,
    build_pair_frame,
    check_space_conditions,
    verify_fi_embedding,
    verify_pair_embedding,
)
from condlat.search import SearchSpec, find_witness, minimal_witness
from condlat.selection import (
    ba_to_selection,
    check_frame,
    from_well_order,
    induced_conditional,
)

import oracle

CORE = PRECONDITIONAL_AXIOMS
FRAME_AXIOMS = tuple(Axiom(a) for a in oracle.SET_AXIOMS)
SPAN = {ax: "ops." + ("unary", "binary", "ternary")[oracle.ARITY[ax.value] - 1]
        for ax in BINARY_AXIOMS}


@dataclass
class Verdict:
    kind: str
    run: object        # run(call) -> raw results
    answer: object     # answer(raw) -> plain values comparable with expected
    expected: object


@dataclass
class Workload:
    verdicts: list
    warmup: list       # run once, untimed, before the first timed verdict
    # every run makes at least this many rounds, and the tail is taken over
    # exactly these: about as many as fit into 10 s on the reference machine
    tail_rounds: int = 2


def _shuffled(workload, rng):
    """Verdicts in seeded order.  Kinds must not run in blocks: the speed
    scale of neighbouring verdicts comes from the same few samples, so a
    block of one kind would share one sample's error."""
    rng.shuffle(workload.verdicts)
    return workload


# -- frame-algebras ------------------------------------------------------

# Frames per point count m and fixpoint-lattice size n (17 stands for
# every n > 16, where ternary checks are sampled; below that they cost n^3).
# Each row is 12 times the shares seen over 2000 seeded frames per m (1000
# for m = 8), rounded by largest remainder.  Drawing to these quotas keeps
# the release gate's distribution (m uniform in 1..8, density 0.5) while
# the mix of cheap and expensive algebras no longer varies with the seed.
LARGE = 17
QUOTA = {
    1: {1: 6, 2: 6},
    2: {1: 1, 2: 7, 3: 3, 4: 1},
    3: {2: 1, 3: 3, 4: 5, 5: 2, 6: 1},
    4: {3: 1, 4: 2, 5: 3, 6: 3, 7: 2, 8: 1},
    5: {5: 1, 6: 1, 7: 2, 8: 2, 9: 2, 10: 2, 11: 1, 12: 1},
    6: {8: 1, 9: 1, 10: 1, 11: 2, 12: 2, 13: 1, 14: 1, 15: 1, 16: 1, 17: 1},
    7: {12: 1, 13: 1, 14: 1, 15: 1, 16: 1, 17: 7},
    8: {17: 12},
}
SPOT_CHECKS = 8
WELL_ORDER_WORLDS = (3, 4, 5, 6)


def _frame_verdict(frame, closure, sets, pairs):
    S = np.array(sets, dtype=np.int64)
    T = closure.arrows(S[:, None], S[None, :])
    violations = oracle.set_algebra_violations(S, T)

    def run(call):
        fl = call("frames.fixpoints", fixpoints, frame)
        checks = [call(SPAN[ax], check_axiom, fl.op, ax) for ax in FRAME_AXIOMS]
        spots = []
        for A, B in pairs:
            cA = call("frames.closure", frame.closure, A)
            cB = call("frames.closure", frame.closure, B)
            spots.append((cA, cB, call("frames.closure", frame.closure, cA)))
        return fl, checks, spots

    def answer(raw):
        fl, checks, spots = raw
        table = tuple(tuple(fl.sets[k] for k in row) for row in fl.op.table)
        # a failure must come with a witness that really violates the axiom
        # (a sampled check reports whichever one it drew first)
        verdicts = {c.axiom.value: (c.holds, c.holds or
                                    bool(violations[c.axiom.value][tuple(c.witness)]))
                    for c in checks}
        return fl.sets, table, verdicts, tuple(spots)

    spots = []
    for A, B in pairs:
        cA, cB = closure(A), closure(B)
        # closure laws: extensive, idempotent, monotone
        if A & ~cA or closure(cA) != cA or (A & ~B == 0 and cA & ~cB):
            raise AssertionError(f"oracle closure breaks a closure law at {A:#x}")
        spots.append((cA, cB, cA))
    holds = {ax: not v.any() for ax, v in violations.items()}
    # the fixpoint algebra of any frame satisfies the core five (theorem)
    if not all(holds[ax.value] for ax in CORE):
        raise AssertionError("oracle: a fixpoint algebra breaks a core axiom")
    table = tuple(tuple(int(x) for x in row) for row in T)
    verdicts = {ax: (held, True) for ax, held in holds.items()}
    return Verdict("frame", run, answer, (sets, table, verdicts, tuple(spots)))


def _well_order_verdict(order):
    frame = from_well_order(tuple(f"w{i}" for i in range(len(order))), order)

    def run(call):
        rep = call("selection.check_frame", check_frame, frame)
        op = call("selection.induced", induced_conditional, frame)
        model = call("selection.roundtrip", ba_to_selection, op.lattice, op)
        back = call("selection.induced", induced_conditional, model.frame)
        return rep, op, model, back

    def answer(raw):
        rep, op, model, back = raw
        return rep.ok, op.table, model.frame.rel == frame.rel, back.table == op.table

    # well-order frames are centered, functional and strongly dense, and
    # the round trip through the algebra is the identity (theorems)
    expected = (True, oracle.well_order_table(order), True, True)
    return Verdict("well-order", run, answer, expected)


def frame_algebras(seed, call, root):
    rng = Random(f"frame-algebras:{seed}")
    verdicts = []
    for m, quota in QUOTA.items():
        want = dict(quota)
        while any(want.values()):
            frame = random_frame(rng, m)
            closure = oracle.FrameClosure([frame.predecessors(x) for x in range(m)])
            sets = closure.fixpoints()
            size = min(len(sets), LARGE)
            if not want.get(size):
                continue
            want[size] -= 1
            pairs = [(rng.randrange(frame.full_mask + 1), rng.randrange(frame.full_mask + 1))
                     for _ in range(SPOT_CHECKS)]
            verdicts.append(_frame_verdict(frame, closure, sets, pairs))
    for k in WELL_ORDER_WORLDS:
        verdicts.append(_well_order_verdict(tuple(rng.sample(range(k), k))))
    # one frame of each size up to 4 points, and the smallest round trip
    warmup = verdicts[0:48:12] + [verdicts[-len(WELL_ORDER_WORLDS)]]
    catalog = _catalog_verdicts()
    for path in sorted((root / "fixtures").iterdir()):
        catalog.append(_fixture_verdict(call("io.parse", load_document, path.read_text())))
    return _shuffled(Workload(verdicts + catalog, warmup + catalog), rng)


# -- table-census --------------------------------------------------------

def _table_verdict(op, profile, label, residuation):
    def run(call):
        checks = [call(SPAN[ax], check_axiom, op, ax) for ax in BINARY_AXIOMS]
        return (checks, call("ops.classify", classify, op),
                call("ops.residuation", residuation_witness, op))

    def answer(raw):
        checks, cls, res = raw
        return {c.axiom.value: (c.holds, c.witness) for c in checks}, cls.label.value, res

    return Verdict("table", run, answer, (profile, label, residuation))


def table_census(seed, call, root):
    rng = Random(f"table-census:{seed}")
    three = chain(3)
    profiles, labels, residuation = oracle.chain3_census()
    verdicts = [
        _table_verdict(ConditionalOp(three, oracle.chain3_rows(t)),
                       profiles[t], labels[t], residuation[t])
        for t in range(oracle.CHAIN3_TABLES)
    ]
    return _shuffled(Workload(verdicts, verdicts[:20], tail_rounds=4), rng)


# -- the catalog and the fixtures (run in frame-algebras) ------------------

def _catalog_verdicts():
    out = []
    for e in catalog.ENTRIES:
        out.append(_catalog_profile_verdict(e))
    for e in catalog.preconditional_entries():
        out.append(_fi_verdict(e))
        out.append(_pair_verdict(e))
    for se in catalog.SELECTION_ENTRIES:
        out.append(_selection_entry_verdict(se))
    out.append(_density_gap_verdict())
    for fe in catalog.FRAME_ENTRIES:
        out.append(_frame_entry_verdict(fe))
    return out


def _catalog_profile_verdict(e):
    """The pinned axiom profile and class label of a catalog entry."""
    axioms = tuple(e.profile)
    label = e.label and e.label.value

    def run(call):
        checks = [call(SPAN[ax], check_axiom, e.conditional, ax) for ax in axioms]
        return checks, (call("ops.classify", classify, e.conditional) if label else None)

    def answer(raw):
        checks, cls = raw
        return {c.axiom.value: c.holds for c in checks}, cls and cls.label.value

    expected = {ax.value: held for ax, held in e.profile.items()}
    return Verdict("catalog-profile", run, answer, (expected, label))


def _fi_verdict(e):
    def run(call):
        space = call("representation.fi", build_fi_space, e.lattice, e.conditional)
        rep = call("representation.fi", verify_fi_embedding, space)
        cond = call("representation.conditions", check_space_conditions,
                    space.frame, space.basis)
        return rep, cond

    def answer(raw):
        rep, cond = raw
        return rep.ok, rep.open_fixpoint_count, cond.ok

    # hat is an isomorphism onto the open fixpoints, and the space meets
    # the four conditions (theorems for finite algebras)
    return Verdict("catalog-fi", run, answer, (True, e.lattice.n, True))


def _pair_verdict(e):
    def run(call):
        pf = call("representation.pair", build_pair_frame, e.lattice, e.conditional)
        return call("representation.pair", verify_pair_embedding, pf)

    def answer(rep):
        return rep.ok, rep.fixpoint_count, len(set(rep.mapping))

    n = e.lattice.n
    return Verdict("catalog-pair", run, answer, (True, n, n))


def _selection_properties(rep):
    return {"success": rep.success[0], "centering": rep.centering[0],
            "functionality": rep.functionality[0], "strong_density": rep.strong_density[0]}


def _selection_entry_verdict(se):
    def run(call):
        return call("selection.check_frame", check_frame, se.frame)

    return Verdict("catalog-selection", run, _selection_properties, dict(se.properties))


def _density_gap_verdict():
    gap = catalog.selection_entry("density-gap-3").frame

    def run(call):
        op = call("selection.induced", induced_conditional, gap)
        return call(SPAN[Axiom.P5], check_axiom, op, Axiom.P5)

    def answer(chk):
        return chk.holds, chk.witness

    return Verdict("catalog-p5-witness", run, answer, (False, (6, 4, 0)))


def _frame_entry_verdict(fe):
    masks = dict(fe.table_order)
    published = {(masks[r], masks[c]): masks[fe.table_names[i][j]]
                 for i, (r, _) in enumerate(fe.table_order)
                 for j, (c, _) in enumerate(fe.table_order)}

    def run(call):
        return call("frames.fixpoints", fixpoints, fe.frame)

    def answer(fl):
        table = {(s, t): fl.sets[fl.op.table[i][j]]
                 for i, s in enumerate(fl.sets) for j, t in enumerate(fl.sets)}
        return fl.sets, table

    return Verdict("catalog-frame", run, answer, (fe.fixpoint_masks, published))


def _fixture_verdict(doc):
    """A parsed fixture must equal its catalog entry cell for cell and
    reproduce the entry's pinned answers."""
    if isinstance(doc, LatticeDocument):
        e = catalog.entry(doc.name)
        axioms = tuple(e.profile)

        def shape(L, op, neg):
            return (L.names, tuple(L.up_mask(a) for a in range(L.n)),
                    op and op.table, neg and neg.table)

        def run(call):
            return [call(SPAN[ax], check_axiom, doc.conditional, ax) for ax in axioms]

        def answer(checks):
            return (shape(doc.lattice, doc.conditional, doc.unary),
                    {c.axiom.value: c.holds for c in checks})

        expected = (shape(e.lattice, e.conditional, e.unary),
                    {ax.value: held for ax, held in e.profile.items()})
        return Verdict("fixture-lattice", run, answer, expected)
    if isinstance(doc, FrameDocument):
        fe = catalog.frame_entry(doc.name)

        def preds(frame):
            return tuple(frame.predecessors(x) for x in range(frame.m))

        def run(call):
            return call("frames.fixpoints", fixpoints, doc.frame)

        return Verdict("fixture-frame", run, lambda fl: (preds(doc.frame), fl.sets),
                       (preds(fe.frame), fe.fixpoint_masks))
    se = catalog.selection_entry(doc.name)

    def run(call):
        return call("selection.check_frame", check_frame, doc.frame)

    return Verdict("fixture-selection", run,
                   lambda rep: (doc.frame.rel, _selection_properties(rep)),
                   (se.frame.rel, dict(se.properties)))


# -- search-profiles -----------------------------------------------------

SEARCH_AXES = tuple(Axiom(a) for a in oracle.SEARCH_AXIOMS)


def _spec_verdict(spec, first):
    def run(call):
        return call("search.find", find_witness, spec)

    def answer(res):
        return tuple(w.table for w in res.witnesses), res.exhausted

    if first is None:
        expected = ((), True)
    else:
        expected = ((oracle.chain3_rows(first),), False)
    return Verdict("spec", run, answer, expected)


def _long_search_verdict():
    def run(call):
        return call("search.minimal", minimal_witness, (Axiom.MP, Axiom.WM), (Axiom.P1,))

    def answer(mw):
        return mw.found, len(mw.trail), all(exhausted for _, _, exhausted in mw.trail)

    # MP at a = 1 is P1, so no lattice carries a witness; the inventory
    # holds the 10 lattices of at most 5 elements up to isomorphism
    return Verdict("minimal", run, answer, (False, 10, True))


def search_profiles(seed, call, root):
    rng = Random(f"search-profiles:{seed}")
    three = chain(3)
    first = oracle.chain3_first_witness()
    verdicts = []
    for split in product((0, 1, 2), repeat=len(SEARCH_AXES)):
        spec = SearchSpec(three,
                          require=tuple(ax for ax, k in zip(SEARCH_AXES, split) if k == 1),
                          forbid=tuple(ax for ax, k in zip(SEARCH_AXES, split) if k == 2))
        verdicts.append(_spec_verdict(spec, first[split]))
    verdicts.append(_long_search_verdict())
    return _shuffled(Workload(verdicts, verdicts[:20]), rng)


# -- confidence-space ----------------------------------------------------

SMALL_WORLDS = (3, 4, 5, 6)
# small spaces per world count by whether P5 holds (P4 always does; P5
# holds for 60-75% of these masses and thresholds).  verify_axioms stops
# scanning an axiom at its first witness, so this mix sets the cost, and
# an even split keeps the tail percentile inside one group of 6-world
# spaces instead of on the edge between the two.
P5_QUOTA = {True: 5, False: 5}
TABLE_CELLS = 256
PROB_SAMPLES = 10 ** 6


def _reference_verdicts(space, seed, rng):
    N = 1 << space.world_count
    cells = [(rng.randrange(N), rng.randrange(N)) for _ in range(TABLE_CELLS)]
    cells += [(NORM_WITNESS[0], NORM_WITNESS[1]), (N - 1, N - 1), (0, N - 1)]
    want = tuple(oracle.confidence_arrow(space.world_count, space.self_mass,
                                         space.other_mass, space.threshold, a, b)
                 for a, b in cells)

    def run_table(call):
        return call("probabilistic.table", arrow_table, space)

    def answer_table(T):
        return T.shape, tuple(int(T[a, b]) for a, b in cells)

    def run_verify(call):
        return call("probabilistic.verify", verify_axioms, space, PROB_SAMPLES, seed)

    def answer_verify(rep):
        return ({ax.value: c.holds for ax, c in rep.checks.items()},
                rep[Axiom.P2].instances, rep[Axiom.NORM].witness)

    # the reference space: core five and MP hold, P2 is checked on every
    # pair of sets, and normality fails at the pinned witness
    holds = {ax: True for ax in ("P1", "P2", "P3", "P4", "P5", "MP")}
    expected = ({**holds, "NORM": False}, N * N, NORM_WITNESS)
    return [Verdict("reference-table", run_table, answer_table, ((N, N), want)),
            Verdict("reference-verify", run_verify, answer_verify, expected)]


def _small_space_verdict(space, T, truth):
    def run(call):
        return call("probabilistic.verify", verify_axioms, space, PROB_SAMPLES, 0, True)

    def answer(rep):
        return {ax.value: (c.holds, None if c.holds else
                           oracle.confidence_violates(T, ax.value, c.witness))
                for ax, c in rep.checks.items()}

    expected = {ax: (held, None if held else True) for ax, held in truth.items()}
    return Verdict("small-space", run, answer, expected)


def confidence(seed, call, root):
    rng = Random(f"confidence-space:{seed}")
    verdicts = _reference_verdicts(confidence_space(), seed, rng)
    for k in SMALL_WORLDS:
        want = dict(P5_QUOTA)
        while any(want.values()):
            space = confidence_space(k, Fraction(rng.randint(1, 19), 20),
                                     Fraction(rng.randint(1, 20), 20))
            T = oracle.confidence_table(k, space.self_mass, space.other_mass, space.threshold)
            truth = oracle.confidence_verdicts(T, k)
            if want[truth["P5"]]:
                want[truth["P5"]] -= 1
                verdicts.append(_small_space_verdict(space, T, truth))
    warmup = verdicts[2:2 + sum(P5_QUOTA.values())]
    return _shuffled(Workload(verdicts, warmup, tail_rounds=4), rng)


BUILDERS = {
    "frame-algebras": frame_algebras,
    "table-census": table_census,
    "search-profiles": search_profiles,
    "confidence-space": confidence,
}


# -- meters: counts read off the results of traced calls ------------------

def _lex_position(witness, n):
    pos = 0
    for x in witness:
        pos = pos * n + x
    return pos


def _meter_check(args, chk, c):
    op, ax = args
    n = op.lattice.n
    if chk.mode == "sampled":
        done = chk.samples
        c["ops.sampled_instances"] += done
    elif chk.holds:
        done = n ** oracle.ARITY[ax.value]
    else:
        done = _lex_position(chk.witness, n) + 1
    c["ops.check_calls"] += 1
    c["ops.instances"] += done


def _meter_fixpoints(args, fl, c):
    c["frames.fixpoints_calls"] += 1
    c["frames.lattice_n_max"] = max(c["frames.lattice_n_max"], fl.lattice.n)


def _meter_pair(args, rep, c):
    c["representation.fallbacks"] += rep.fallback_used


def _meter_fi(args, rep, c):
    c["representation.opens"] += rep.open_count


def _meter_parse(args, doc, c):
    c["io.documents"] += 1


def _meter_trail(trail, found, c):
    for _, nodes, exhausted in trail:
        c["search.specs"] += 1
        c["search.nodes"] += nodes
        c["search.exhausted_specs"] += exhausted
        c["search.nodes_per_spec_max"] = max(c["search.nodes_per_spec_max"], nodes)
    c["search.witnesses"] += found


def _meter_find(args, res, c):
    _meter_trail([(None, res.nodes, res.exhausted)], len(res.witnesses), c)


def _meter_minimal(args, mw, c):
    _meter_trail(mw.trail, int(mw.found), c)


def _meter_verify(args, rep, c):
    for chk in rep.checks.values():
        c["probabilistic.instances"] += chk.instances
        if chk.mode == "exhaustive":
            c["probabilistic.exhaustive_instances"] += chk.instances


METERS = {
    check_axiom: _meter_check,
    fixpoints: _meter_fixpoints,
    verify_pair_embedding: _meter_pair,
    verify_fi_embedding: _meter_fi,
    load_document: _meter_parse,
    find_witness: _meter_find,
    minimal_witness: _meter_minimal,
    verify_axioms: _meter_verify,
}
