"""Binary operation tables and the implication axiom checkers.

An operation table is checked against named axioms.  The five core
axioms P1..P5 single out the operations this package revolves around;
the remaining named axioms carve out the classical subfamilies
(Heyting, Sasaki, material).  Negation is always the derived one,
neg(a) = a -> bottom, unless a unary table is supplied explicitly.

Every check is exhaustive: it decides all instances (at most 64^3 for a
ternary axiom) and reports the lexicographically first counterexample
together with both sides of the violated (in)equality.  Each law has
one definition, two evaluators: fewer than 64 instances are scanned in
lexicographic order over the tuple tables; larger grids evaluate the
same definition with numpy over ascending blocks of antecedent rows,
each block twice the rows of the last up to a cell cap
(``grid_first_violation``, the tables read through ``Rows``: from 12
elements through flat offsets a*n + b, widened to intp with b added in
place, below that as arr[a, b]), which stops at the same first witness,
and that witness is confirmed on the tuple tables.  ``search`` reads
the same definitions on partial tables, the confidence space
(``probabilistic``) on the powerset of its worlds, and the negation
section on the table ¬a ∨ (a ∧ b): the semicomplement and involution
laws of an orthocomplementation are SEMI and INV there, and the
detachment form of orthomodularity is MP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InternalInconsistency,
    NotAPrecomplementation,
    NotAPreconditional,
    NotAnOrthocomplementation,
    NotResiduated,
    PreconditionFailed,
    WidthMismatch,
)
from .lattice import (
    GRID_MIN_INSTANCES,
    FiniteLattice,
    Rows,
    first_violation,
    grid_first_violation,
    scan_grid,
)


class Axiom(enum.Enum):
    P1 = "P1"            # 1 -> a  <=  a
    P2 = "P2"            # a ∧ b  <=  a -> b
    P3 = "P3"            # a -> b  <=  a -> (a ∧ b)
    P4 = "P4"            # a -> (b ∧ c)  <=  a -> b
    P5 = "P5"            # a -> ((a ∧ b) -> c)  <=  (a ∧ b) -> c
    MP = "MP"            # a ∧ (a -> b)  <=  b
    WM = "WM"            # b  <=  a -> b
    SEMI = "SEMI"        # a ∧ (a -> 0)  =  0
    INV = "INV"          # (a -> 0) -> 0  =  a
    ID = "ID"            # a -> a  =  1
    NORM = "NORM"        # (a -> b) ∧ (a -> c)  <=  a -> (b ∧ c)
    NEGIMP = "NEGIMP"    # ¬(a -> b)  <=  a -> ¬b
    FLAT = "FLAT"        # a -> ((a ∧ b) -> c)  =  (a ∧ b) -> c
    PC_ANTI = "PC-ANTI"  # unary: a <= b  implies  ¬b <= ¬a
    PC_TOP = "PC-TOP"    # unary: ¬1 = 0

    # members are singletons compared by identity; Enum's own hash rehashes the name
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


PRECONDITIONAL_AXIOMS = (Axiom.P1, Axiom.P2, Axiom.P3, Axiom.P4, Axiom.P5)
BINARY_AXIOMS = (
    Axiom.P1, Axiom.P2, Axiom.P3, Axiom.P4, Axiom.P5, Axiom.MP, Axiom.WM,
    Axiom.SEMI, Axiom.INV, Axiom.ID, Axiom.NORM, Axiom.NEGIMP, Axiom.FLAT,
)


def _out_of_range(values, n, what):
    """Raise on the first of values outside range(n)."""
    v = next(v for v in values if not 0 <= v < n)
    raise WidthMismatch(f"{what} {v} out of range")


@dataclass(frozen=True)
class UnaryOp:
    """A unary table over a lattice; table[a] is the image of a."""

    lattice: FiniteLattice
    table: tuple

    def __post_init__(self):
        n = self.lattice.n
        t = tuple(map(int, self.table))
        if len(t) != n:
            raise WidthMismatch(f"unary table has {len(t)} entries for {n} elements")
        if min(t) < 0 or max(t) >= n:
            _out_of_range(t, n, "unary table entry")
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class ConditionalOp:
    """A binary table over a lattice; table[a][b] is a -> b."""

    lattice: FiniteLattice
    table: tuple

    def __post_init__(self):
        n = self.lattice.n
        rows = tuple(tuple(map(int, row)) for row in self.table)
        if len(rows) != n:
            raise WidthMismatch(f"table has {len(rows)} rows for {n} elements")
        for row in rows:
            if len(row) != n:
                raise WidthMismatch(f"table row has {len(row)} entries for {n} elements")
            if min(row) < 0 or max(row) >= n:
                _out_of_range(row, n, "table entry")
        object.__setattr__(self, "table", rows)

    @cached_property
    def table_array(self):
        """The table as an n x n numpy array, built on first use."""
        return np.array(self.table, dtype=np.uint8)

    def derive_negation(self) -> UnaryOp:
        """neg(a) = a -> bottom."""
        bot = self.lattice.bottom
        return UnaryOp(self.lattice, tuple(row[bot] for row in self.table))


# -- axiom definitions -------------------------------------------------
#
# One definition, two evaluators.  Each definition evaluates one
# instance over the meet table M and the conditional table T, both read
# X[a][b], and returns (lhs, rhs); the relation field says whether
# lhs <= rhs or lhs = rhs is required.  The scan passes the tuple tables
# and Python ints; the grid passes the numpy tables wrapped in ``Rows``
# and broadcast index arrays (see ``grid_first_violation``).  ``search``
# reads them on partial tables, ``probabilistic`` on the powerset.

@dataclass(frozen=True)
class _AxiomDef:
    arity: int
    relation: str  # "le" or "eq"
    eval: object


def _p1(L, M, T, v):
    a, = v
    return T[L.top][a], a


def _p2(L, M, T, v):
    a, b = v
    return M[a][b], T[a][b]


def _p3(L, M, T, v):
    a, b = v
    return T[a][b], T[a][M[a][b]]


def _p4(L, M, T, v):
    a, b, c = v
    return T[a][M[b][c]], T[a][b]


def _p5(L, M, T, v):
    a, b, c = v
    inner = T[M[a][b]][c]
    return T[a][inner], inner


def _mp(L, M, T, v):
    a, b = v
    return M[a][T[a][b]], b


def _wm(L, M, T, v):
    a, b = v
    return b, T[a][b]


def _semi(L, M, T, v):
    a, = v
    return M[a][T[a][L.bottom]], L.bottom


def _inv(L, M, T, v):
    a, = v
    return T[T[a][L.bottom]][L.bottom], a


def _id(L, M, T, v):
    a, = v
    return T[a][a], L.top


def _norm(L, M, T, v):
    a, b, c = v
    return M[T[a][b]][T[a][c]], T[a][M[b][c]]


def _negimp(L, M, T, v):
    a, b = v
    return T[T[a][b]][L.bottom], T[a][T[b][L.bottom]]


AXIOM_DEFS = {
    Axiom.P1: _AxiomDef(1, "le", _p1),
    Axiom.P2: _AxiomDef(2, "le", _p2),
    Axiom.P3: _AxiomDef(2, "le", _p3),
    Axiom.P4: _AxiomDef(3, "le", _p4),
    Axiom.P5: _AxiomDef(3, "le", _p5),
    Axiom.MP: _AxiomDef(2, "le", _mp),
    Axiom.WM: _AxiomDef(2, "le", _wm),
    Axiom.SEMI: _AxiomDef(1, "eq", _semi),
    Axiom.INV: _AxiomDef(1, "eq", _inv),
    Axiom.ID: _AxiomDef(1, "eq", _id),
    Axiom.NORM: _AxiomDef(3, "le", _norm),
    Axiom.NEGIMP: _AxiomDef(2, "le", _negimp),
    Axiom.FLAT: _AxiomDef(3, "eq", _p5),
}


@dataclass(frozen=True)
class AxiomCheck:
    axiom: Axiom
    holds: bool
    witness: tuple | None = None
    lhs: int | None = None
    rhs: int | None = None
    relation: str = "le"
    mode: str = "exhaustive"

    def describe(self, names=None) -> str:
        if self.holds:
            return f"{self.axiom} holds ({self.mode})"
        sym = "<=" if self.relation == "le" else "="
        if names is None:
            w = ",".join(str(x) for x in self.witness)
            return f"{self.axiom} fails at ({w}): {self.lhs} {sym} {self.rhs} is false"
        w = ",".join(names[x] for x in self.witness)
        return (
            f"{self.axiom} fails at ({w}): "
            f"{names[self.lhs]} {sym} {names[self.rhs]} is false"
        )


# a holding verdict carries nothing but its axiom, so one frozen check per
# axiom is shared by every table where the law holds
_HOLDS = {ax: AxiomCheck(ax, True) for ax in AXIOM_DEFS}


@dataclass
class AxiomReport:
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks.values())

    def failing(self):
        return [c for c in self.checks.values() if not c.holds]

    def profile(self):
        return {ax: c.holds for ax, c in self.checks.items()}

    def __getitem__(self, axiom: Axiom) -> AxiomCheck:
        return self.checks[axiom]


def _fails(M, lhs, rhs, relation):
    """True where the relation fails; x <= y is read as x ∧ y = x, so the
    same test runs on scalars and on index arrays."""
    if relation == "eq":
        return lhs != rhs
    return M[lhs][rhs] != lhs


def check_axiom(op: ConditionalOp, axiom: Axiom) -> AxiomCheck:
    """Check one axiom; lexicographically first counterexample if any."""
    d = AXIOM_DEFS.get(axiom)
    if d is None:
        raise ValueError(f"{axiom} is not an axiom of binary tables")
    L, M, T = op.lattice, op.lattice.meet_table, op.table
    if L.n ** d.arity >= GRID_MIN_INSTANCES:
        return _grid_check(op, axiom, d)
    # the scalar route: every instance in lexicographic order, inline rather
    # than through first_violation (its call overhead cost the census 35-50%);
    # both read the one cached scan_grid, not a fresh product per call
    for v in scan_grid(L.n, d.arity):
        lhs, rhs = d.eval(L, M, T, v)
        if _fails(M, lhs, rhs, d.relation):
            return AxiomCheck(axiom, False, v, lhs, rhs, d.relation)
    return _HOLDS[axiom]


def _grid_check(op, axiom, d):
    """The numpy route: the same first witness, confirmed on the scalar tables."""
    L, M = op.lattice, op.lattice.meet_table
    MA, TA = Rows(L.meet_array), Rows(op.table_array)
    v = grid_first_violation(
        L.n, d.arity, lambda *v: _fails(MA, *d.eval(L, MA, TA, v), d.relation))
    if v is None:
        return _HOLDS[axiom]
    lhs, rhs = d.eval(L, M, op.table, v)
    if not _fails(M, lhs, rhs, d.relation):
        raise InternalInconsistency(f"{axiom} grid flags {v} but the definition holds there")
    return AxiomCheck(axiom, False, v, lhs, rhs, d.relation)


def check_axioms(op: ConditionalOp, axioms) -> AxiomReport:
    return AxiomReport({ax: check_axiom(op, ax) for ax in axioms})


def require_own_lattice(lattice: FiniteLattice, op: ConditionalOp):
    """Refuse a lattice other than the one op's table is over.  A lattice
    built separately with the same names and order is the same one."""
    own = op.lattice
    if lattice is not own and (lattice.names != own.names or any(
            lattice.up_mask(a) != own.up_mask(a) for a in range(lattice.n))):
        raise PreconditionFailed(f"{lattice!r} is not the lattice of the table, {own!r}")


def require_preconditional(op: ConditionalOp):
    report = check_axioms(op, PRECONDITIONAL_AXIOMS)
    if not report.ok:
        first = report.failing()[0]
        raise NotAPreconditional(first.describe(op.lattice.names))
    return report


# -- unary tables: precomplementations and orthocomplementations -------
#
# ``_neg_or_meet`` builds the table ¬a ∨ (a ∧ b), whose derived negation is
# ¬ itself, so SEMI (a ∧ ¬a = 0), INV (¬¬a = a) and MP (the detachment form
# of orthomodularity) are read from ``AXIOM_DEFS`` on it.  PC-ANTI, excluded
# middle, De Morgan and the orthomodular law have no binary axiom.

def _neg_or_meet(neg: UnaryOp) -> tuple:
    """The rows of the table ¬a ∨ (a ∧ b) for any unary table ¬, ungated."""
    L, t, J = neg.lattice, neg.table, neg.lattice.join_table
    return tuple(tuple(J[t[a]][m] for m in L.meet_table[a]) for a in range(L.n))


def precomplementation_report(neg: UnaryOp) -> AxiomReport:
    L, t = neg.lattice, neg.table

    def violates(v):
        a, b = v
        return L.leq(a, b) and not L.leq(t[b], t[a])

    anti_w = first_violation(L.n, 2, violates)
    checks = {
        Axiom.PC_ANTI: AxiomCheck(
            Axiom.PC_ANTI, anti_w is None, anti_w,
            None if anti_w is None else t[anti_w[1]],
            None if anti_w is None else t[anti_w[0]],
        ),
        Axiom.PC_TOP: AxiomCheck(
            Axiom.PC_TOP, t[L.top] == L.bottom,
            None if t[L.top] == L.bottom else (L.top,),
            t[L.top], L.bottom, "eq",
        ),
    }
    return AxiomReport(checks)


def require_precomplementation(neg: UnaryOp):
    report = precomplementation_report(neg)
    if not report.ok:
        raise NotAPrecomplementation(report.failing()[0].describe(neg.lattice.names))
    return report


def from_precomplementation(neg: UnaryOp) -> ConditionalOp:
    """The table a -> b = ¬a ∨ (a ∧ b) for a precomplementation ¬."""
    require_precomplementation(neg)
    return ConditionalOp(neg.lattice, _neg_or_meet(neg))


@dataclass(frozen=True)
class OrthocomplementReport:
    antitone: AxiomCheck
    semicomplement: tuple   # (holds, witness)
    involution: tuple
    excluded_middle: tuple  # derived, still checked
    de_morgan: tuple        # derived, still checked

    @property
    def defining_ok(self):
        return (self.antitone.holds and self.semicomplement[0]
                and self.involution[0])

    @property
    def ok(self):
        return (self.defining_ok and self.excluded_middle[0]
                and self.de_morgan[0])


def orthocomplement_report(
    neg: UnaryOp, hook: ConditionalOp | None = None
) -> OrthocomplementReport:
    """The defining and derived laws of an orthocomplementation; hook is
    the table ¬a ∨ (a ∧ b) when the caller has built it already."""
    L, t = neg.lattice, neg.table
    anti = precomplementation_report(neg)[Axiom.PC_ANTI]
    op = ConditionalOp(L, _neg_or_meet(neg)) if hook is None else hook
    semi, inv = check_axiom(op, Axiom.SEMI), check_axiom(op, Axiom.INV)
    em_w = first_violation(L.n, 1, lambda v: L.join(v[0], t[v[0]]) != L.top)

    def meet_law_fails(a, b):
        return t[L.meet(a, b)] != L.join(t[a], t[b])

    def violates(v):
        a, b = v
        return meet_law_fails(a, b) or t[L.join(a, b)] != L.meet(t[a], t[b])

    dm_w = first_violation(L.n, 2, violates)
    if dm_w is not None:
        dm_w += ("meet" if meet_law_fails(*dm_w) else "join",)
    return OrthocomplementReport(
        anti, (semi.holds, semi.witness), (inv.holds, inv.witness),
        (em_w is None, em_w), (dm_w is None, dm_w),
    )


def require_orthocomplement(
    neg: UnaryOp, hook: ConditionalOp | None = None
) -> OrthocomplementReport:
    report = orthocomplement_report(neg, hook)
    if not report.defining_ok:
        names = neg.lattice.names
        laws = (("not antitone", (report.antitone.holds, report.antitone.witness)),
                ("a ∧ ¬a != 0", report.semicomplement), ("¬¬a != a", report.involution))
        detail = [f"{law} at ({','.join(names[x] for x in w)})"
                  for law, (holds, w) in laws if not holds]
        raise NotAnOrthocomplementation("; ".join(detail))
    if not report.ok:
        # derivable from the defining three, so this cannot fire on a
        # correct checker
        raise InternalInconsistency(
            "orthocomplement passed its defining laws but failed a derived one"
        )
    return report


def sasaki_hook(neg: UnaryOp) -> ConditionalOp:
    """a -> b = ¬a ∨ (a ∧ b), requiring ¬ to be an orthocomplementation.

    Cross-checked against its equivalent shape ¬(a ∧ ¬(a ∧ b)), which
    must agree on an ortholattice.
    """
    L, t = neg.lattice, neg.table
    hook = ConditionalOp(L, _neg_or_meet(neg))
    require_orthocomplement(neg, hook)
    T = hook.table

    def disagrees(v):
        a, b = v
        return T[a][b] != t[L.meet(a, t[L.meet(a, b)])]

    w = first_violation(L.n, 2, disagrees)
    if w is not None:
        raise InternalInconsistency(
            f"Sasaki forms disagree at ({L.names[w[0]]},{L.names[w[1]]})"
        )
    return hook


@dataclass(frozen=True)
class Orthomodularity:
    holds: bool
    witness: tuple | None  # (a, b) with a <= b and b != a ∨ (¬a ∧ b)


def is_orthomodular(neg: UnaryOp) -> Orthomodularity:
    """Orthomodular law, cross-checked against the Sasaki detachment form.

    Route 1: a <= b implies b = a ∨ (¬a ∧ b).
    Route 2: MP on the Sasaki hook, a ∧ (¬a ∨ (a ∧ b)) <= b for all a, b.
    The two must agree on any ortholattice.
    """
    L, t = neg.lattice, neg.table
    hook = ConditionalOp(L, _neg_or_meet(neg))
    require_orthocomplement(neg, hook)

    def law(v):
        a, b = v
        return L.leq(a, b) and L.join(a, L.meet(t[a], b)) != b

    w = first_violation(L.n, 2, law)
    mp = check_axiom(hook, Axiom.MP)
    if (w is None) != mp.holds:
        raise InternalInconsistency(
            f"orthomodularity routes disagree: law witness {w}, detachment witness {mp.witness}"
        )
    return Orthomodularity(w is None, w)


# -- residuation and the Heyting construction --------------------------

def residuation_witness(op: ConditionalOp):
    """First (a, b, c, direction) violating a ∧ b <= c  iff  a <= b -> c."""
    L = op.lattice

    def fails(M, T, v):
        # each side's x <= y read as x ∧ y = x
        a, b, c = v
        ab = M[a][b]
        return (M[ab][c] == ab) != (M[a][T[b][c]] == a)

    w = first_violation(
        L.n, 3, lambda v: fails(L.meet_table, op.table, v),
        lambda *v: fails(Rows(L.meet_array), Rows(op.table_array), v))
    if w is None:
        return None
    a, b, c = w
    return (a, b, c, "forward" if L.leq(L.meet(a, b), c) else "backward")


def heyting_residual(L: FiniteLattice) -> ConditionalOp:
    """b -> c = join of {a : a ∧ b <= c}; verified to residuate meet."""
    rows = []
    for b in range(L.n):
        row = []
        for c in range(L.n):
            mask = 0
            for a in range(L.n):
                if L.leq(L.meet(a, b), c):
                    mask |= 1 << a
            row.append(L.join_mask(mask))
        rows.append(tuple(row))
    op = ConditionalOp(L, tuple(rows))
    w = residuation_witness(op)
    if w is not None:
        a, b, c, direction = w
        raise NotResiduated(
            f"no residual: candidate fails at "
            f"({L.names[a]},{L.names[b]},{L.names[c]}) ({direction})"
        )
    return op


# -- classification ----------------------------------------------------

class ClassLabel(enum.Enum):
    NOT_PRECONDITIONAL = "None"
    PRECONDITIONAL = "Preconditional"
    WITH_SEMICOMP = "PreconditionalWithSemicomp"
    WITH_MP = "PreconditionalWithMP"
    PROTO_HEYTING = "ProtoHeyting"
    HEYTING = "Heyting"
    SASAKI_OL = "SasakiOL"
    SASAKI_OML = "SasakiOML"
    CLASSICAL = "ClassicalMaterial"

    def __str__(self):
        return self.value


CLASSIFY_AXIOMS = PRECONDITIONAL_AXIOMS + (
    Axiom.MP, Axiom.WM, Axiom.SEMI, Axiom.INV,
)

_SASAKI_LABELS = (ClassLabel.SASAKI_OL, ClassLabel.SASAKI_OML, ClassLabel.CLASSICAL)
_HEYTING_LABELS = (ClassLabel.HEYTING, ClassLabel.CLASSICAL)


@dataclass(frozen=True)
class Classification:
    label: ClassLabel
    report: AxiomReport

    @property
    def profile(self):
        return self.report.profile()


def classify(op: ConditionalOp) -> Classification:
    """Most specific label for the table; cross-checked where a label
    comes with a structural characterization."""
    report = check_axioms(op, CLASSIFY_AXIOMS)
    p = report.profile()
    precond = all(p[ax] for ax in PRECONDITIONAL_AXIOMS)
    if not precond:
        label = ClassLabel.NOT_PRECONDITIONAL
    elif p[Axiom.MP] and p[Axiom.WM] and p[Axiom.INV]:
        label = ClassLabel.CLASSICAL
    elif p[Axiom.MP] and p[Axiom.WM]:
        label = ClassLabel.HEYTING
    elif p[Axiom.MP] and p[Axiom.INV]:
        label = ClassLabel.SASAKI_OML
    elif p[Axiom.SEMI] and p[Axiom.WM]:
        label = ClassLabel.PROTO_HEYTING
    elif p[Axiom.SEMI] and p[Axiom.INV]:
        label = ClassLabel.SASAKI_OL
    elif p[Axiom.MP]:
        label = ClassLabel.WITH_MP
    elif p[Axiom.SEMI]:
        label = ClassLabel.WITH_SEMICOMP
    else:
        label = ClassLabel.PRECONDITIONAL

    if label in _SASAKI_LABELS:
        L, T = op.lattice, op.table
        S = _neg_or_meet(op.derive_negation())
        if T != S:
            a, b = first_violation(L.n, 2, lambda v: T[v[0]][v[1]] != S[v[0]][v[1]])
            raise InternalInconsistency(
                f"label {label} but table is not ¬a ∨ (a ∧ b) at "
                f"({L.names[a]},{L.names[b]})"
            )
    if label in _HEYTING_LABELS:
        w = residuation_witness(op)
        if w is not None:
            raise InternalInconsistency(
                f"label {label} but residuation fails at {w[:3]} ({w[3]})"
            )
    return Classification(label, report)
