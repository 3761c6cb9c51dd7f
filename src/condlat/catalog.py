"""The embedded witness catalog.

One entry per table or structure the test suite pins down, each with
the axioms whose outcome is fixed and, where meaningful, the expected
classification.  Entries whose tables come from a defining formula
(residual, hook, complement, selection) are constructed through those
formulas; hand-specified tables are embedded literally.  Tests confirm
every entry reproduces its expected profile bit-exactly, so a single
mutated cell anywhere in here is caught.

Anchors are stable strings used by the CLI demo and the regression
baselines; keep them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frames import RelationalFrame
from .lattice import FiniteLattice, antichain_bounded, boolean_algebra, chain
from .ops import (
    Axiom,
    ClassLabel,
    ConditionalOp,
    UnaryOp,
    from_precomplementation,
    heyting_residual,
    sasaki_hook,
)
from .selection import SelectionFrame, from_well_order, induced_conditional


@dataclass(frozen=True)
class WitnessEntry:
    name: str
    note: str
    lattice: FiniteLattice
    conditional: ConditionalOp | None = None
    unary: UnaryOp | None = None
    profile: dict = field(default_factory=dict)   # Axiom -> expected holds
    label: ClassLabel | None = None
    expect_orthomodular: bool | None = None


@dataclass(frozen=True)
class FrameEntry:
    name: str
    note: str
    frame: RelationalFrame
    fixpoint_masks: tuple | None = None
    # published layout: element order as (label, mask) plus a table of labels
    table_order: tuple | None = None
    table_names: tuple | None = None


@dataclass(frozen=True)
class SelectionEntry:
    name: str
    note: str
    frame: SelectionFrame
    properties: dict = field(default_factory=dict)  # name -> expected holds


def _two():
    return chain(2, ("0", "1"))


def _three():
    return chain(3, ("0", "h", "1"))


def _cond(L, rows):
    return ConditionalOp(L, tuple(tuple(r) for r in rows))


def _complement(L):
    return UnaryOp(L, L.complement_map())


# 0 < d < b,c < a < 1; the only non-chain meets land on d
_SIX = FiniteLattice.from_cover(
    ("0", "d", "b", "c", "a", "1"),
    [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
)

# two incomparable tracks 0 < b,c < a and 0 < na < nb,nc < 1, glued at
# the bounds; complement swaps the tracks end for end
_ORTHO8 = FiniteLattice.from_cover(
    ("0", "b", "c", "na", "a", "nb", "nc", "1"),
    [(0, 1), (0, 2), (0, 3),
     (1, 4), (2, 4), (3, 5), (3, 6),
     (4, 7), (5, 7), (6, 7)],
)
_ORTHO8_NEG = UnaryOp(_ORTHO8, (7, 5, 6, 4, 3, 1, 2, 0))

_M4 = antichain_bounded(("a", "b", "c", "d"))
_M4_NEG = UnaryOp(_M4, (5, 2, 1, 4, 3, 0))

_O6 = FiniteLattice.from_cover(
    ("0", "a", "b", "c", "d", "1"),
    [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
)
_O6_NEG = UnaryOp(_O6, (5, 4, 3, 2, 1, 0))

_P = {ax: True for ax in (Axiom.P1, Axiom.P2, Axiom.P3, Axiom.P4, Axiom.P5)}


def _entries():
    two, three = _two(), _three()
    four = chain(4, ("0", "a", "b", "1"))
    B4 = boolean_algebra(("p", "q"))
    B8 = boolean_algebra(("u", "v", "w"))
    M3 = antichain_bounded(("a", "b", "c"))
    N5 = FiniteLattice.from_cover(
        ("0", "a", "b", "c", "1"), [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]
    )

    def meet_op(L):
        return _cond(L, [[L.meet(a, b) for b in range(L.n)] for a in range(L.n)])

    return (
        # one axiom down, four up, on the smallest carriers
        WitnessEntry(
            "const-top-2chain", "everything maps to 1; only send-to-self survives",
            two, _cond(two, [[1, 1], [1, 1]]),
            profile={**_P, Axiom.P1: False, Axiom.MP: False,
                     Axiom.P3: True, Axiom.P4: True, Axiom.WM: True},
            label=ClassLabel.NOT_PRECONDITIONAL,
        ),
        WitnessEntry(
            "const-bottom-2chain", "everything maps to 0; conjunctions overshoot",
            two, _cond(two, [[0, 0], [0, 0]]),
            profile={**_P, Axiom.P2: False, Axiom.MP: True, Axiom.WM: False,
                     Axiom.P3: True, Axiom.P4: True},
            label=ClassLabel.NOT_PRECONDITIONAL,
        ),
        WitnessEntry(
            "consequent-projection-2chain", "a -> b = b; restriction to the antecedent fails",
            two, _cond(two, [[0, 1], [0, 1]]),
            profile={**_P, Axiom.P3: False, Axiom.P4: True,
                     Axiom.MP: True, Axiom.WM: True},
            label=ClassLabel.NOT_PRECONDITIONAL,
        ),
        WitnessEntry(
            "antitone-step-3chain", "middle column pinned at h; consequent meets go up",
            three, _cond(three, [[2, 1, 1], [0, 1, 1], [0, 1, 2]]),
            profile={**_P, Axiom.P4: False},
            label=ClassLabel.NOT_PRECONDITIONAL,
        ),
        WitnessEntry(
            "collapse-step-3chain", "h sends everything to 1 but h-meets do not",
            three, _cond(three, [[0, 0, 0], [2, 2, 2], [0, 1, 2]]),
            profile={**_P, Axiom.P5: False},
            label=ClassLabel.NOT_PRECONDITIONAL,
        ),
        # detachment vs monotonicity
        WitnessEntry(
            "tail-constant-4chain", "below 1 all arrows saturate; detachment dies at (b,a)",
            four, _cond(four, [[3, 3, 3, 3], [0, 3, 3, 3], [0, 3, 3, 3], [0, 1, 2, 3]]),
            profile={**_P, Axiom.MP: False, Axiom.WM: True, Axiom.SEMI: True,
                     Axiom.ID: True, Axiom.NEGIMP: True},
            label=ClassLabel.PROTO_HEYTING,
        ),
        WitnessEntry(
            "meet-2chain", "a -> b = a and b; detachment trivially, monotonicity never",
            two, meet_op(two),
            profile={**_P, Axiom.MP: True, Axiom.WM: False},
            label=ClassLabel.WITH_MP,
        ),
        WitnessEntry(
            "identity-or-consequent-3chain", "1 on the diagonal, b elsewhere",
            three, _cond(three, [[2, 1, 2], [0, 2, 2], [0, 1, 2]]),
            profile={Axiom.P3: True, Axiom.P4: False,
                     Axiom.MP: True, Axiom.WM: True},
            label=ClassLabel.NOT_PRECONDITIONAL,
        ),
        # the named classes on their home turf
        WitnessEntry(
            "residual-3chain", "meet residual on the 3-chain",
            three, heyting_residual(three),
            profile={**_P, Axiom.MP: True, Axiom.WM: True, Axiom.INV: False},
            label=ClassLabel.HEYTING,
        ),
        WitnessEntry(
            "material-2chain", "complement-or-conjunction on the 2-chain",
            two, from_precomplementation(_complement(two)),
            profile={**_P, Axiom.MP: True, Axiom.WM: True, Axiom.INV: True},
            label=ClassLabel.CLASSICAL,
        ),
        WitnessEntry(
            "material-B4", "complement-or-conjunction on the 4-element Boolean algebra",
            B4, from_precomplementation(_complement(B4)),
            profile={**_P, Axiom.MP: True, Axiom.WM: True, Axiom.INV: True,
                     Axiom.NORM: True, Axiom.NEGIMP: True},
            label=ClassLabel.CLASSICAL,
        ),
        WitnessEntry(
            "material-B8", "complement-or-conjunction on the 8-element Boolean algebra",
            B8, from_precomplementation(_complement(B8)),
            profile={**_P, Axiom.MP: True, Axiom.WM: True, Axiom.INV: True},
            label=ClassLabel.CLASSICAL,
        ),
        WitnessEntry(
            "sasaki-M4", "hook on the length-four antichain; negation import breaks",
            _M4, sasaki_hook(_M4_NEG), _M4_NEG,
            profile={**_P, Axiom.MP: True, Axiom.INV: True, Axiom.WM: False,
                     Axiom.NEGIMP: False, Axiom.ID: True},
            label=ClassLabel.SASAKI_OML,
            expect_orthomodular=True,
        ),
        WitnessEntry(
            "sasaki-benzene", "hook on the hexagon; normality survives without detachment",
            _O6, sasaki_hook(_O6_NEG), _O6_NEG,
            profile={**_P, Axiom.SEMI: True, Axiom.INV: True, Axiom.MP: False,
                     Axiom.NORM: True, Axiom.ID: True},
            label=ClassLabel.SASAKI_OL,
            expect_orthomodular=False,
        ),
        WitnessEntry(
            "sasaki-twin-peaks", "hook on the glued double track; normality fails",
            _ORTHO8, sasaki_hook(_ORTHO8_NEG), _ORTHO8_NEG,
            profile={**_P, Axiom.SEMI: True, Axiom.INV: True, Axiom.NORM: False,
                     Axiom.ID: True},
            label=ClassLabel.SASAKI_OL,
            expect_orthomodular=False,
        ),
        WitnessEntry(
            "gate-to-bottom-6", "almost everything saturates, except a -> d = d",
            _SIX, _cond(_SIX, [[5, 5, 5, 5, 5, 5], [0, 5, 5, 5, 5, 5],
                               [0, 5, 5, 5, 5, 5], [0, 5, 5, 5, 5, 5],
                               [0, 1, 5, 5, 5, 5], [0, 1, 2, 3, 4, 5]]),
            profile={**_P, Axiom.WM: True, Axiom.SEMI: True, Axiom.MP: False,
                     Axiom.NORM: False, Axiom.ID: True, Axiom.NEGIMP: True},
            label=ClassLabel.PROTO_HEYTING,
        ),
        # meet is a conditional on every lattice, even the crooked ones
        WitnessEntry(
            "meet-M3", "a -> b = a and b on the width-three antichain",
            M3, meet_op(M3),
            profile={**_P, Axiom.MP: True, Axiom.WM: False, Axiom.INV: False},
            label=ClassLabel.WITH_MP,
        ),
        WitnessEntry(
            "meet-N5", "a -> b = a and b on the pentagon",
            N5, meet_op(N5),
            profile={**_P, Axiom.MP: True, Axiom.WM: False, Axiom.INV: False},
            label=ClassLabel.WITH_MP,
        ),
        # selection-induced conditionals on the atoms of a powerset
        WitnessEntry(
            "well-order-B4", "first-at-or-after selection on two ordered worlds",
            B4, induced_conditional(from_well_order(("p", "q"))),
            profile={**_P, Axiom.MP: True, Axiom.ID: True, Axiom.NORM: True,
                     Axiom.FLAT: True, Axiom.WM: False, Axiom.INV: False},
            label=ClassLabel.WITH_MP,
        ),
        WitnessEntry(
            "well-order-B8", "first-at-or-after selection on three ordered worlds",
            boolean_algebra(("w0", "w1", "w2")),
            induced_conditional(from_well_order(("w0", "w1", "w2"))),
            profile={**_P, Axiom.MP: True, Axiom.ID: True, Axiom.NORM: True,
                     Axiom.FLAT: True, Axiom.WM: False},
            label=ClassLabel.WITH_MP,
        ),
    )


ENTRIES = _entries()


def _named(entries, name: str):
    """The entry of entries called name; KeyError if there is none."""
    for e in entries:
        if e.name == name:
            return e
    raise KeyError(name)


def entry(name: str) -> WitnessEntry:
    return _named(ENTRIES, name)


def preconditional_entries():
    """The sub-catalog feeding the representation checks."""
    return tuple(
        e for e in ENTRIES
        if e.conditional is not None and all(e.profile.get(ax, False) for ax in _P)
    )


# -- frames ---------------------------------------------------------------

# four points; y and w see each other, x feeds y, z feeds w; the closure
# fixpoints form a 7-element lattice
_QUAD = RelationalFrame.from_edges(
    ("x", "y", "w", "z"),
    [("x", "y"), ("y", "w"), ("w", "y"), ("z", "w")],
    reflexive=True,
)

# the conditional of the quad frame on its fixpoints, in the layout the
# regression baseline uses: singletons first by track, then the doubles
_QUAD_ORDER = (
    ("0", 0b0000), ("R", 0b0001), ("O", 0b1000), ("G", 0b0011),
    ("P", 0b1001), ("B", 0b1100), ("1", 0b1111),
)
_QUAD_TABLE = (
    ("1", "1", "1", "1", "1", "1", "1"),
    ("B", "1", "B", "1", "1", "B", "1"),
    ("G", "G", "1", "G", "1", "1", "1"),
    ("O", "P", "O", "1", "P", "O", "1"),
    ("0", "G", "B", "G", "1", "B", "1"),
    ("R", "R", "P", "R", "P", "1", "1"),
    ("0", "R", "O", "G", "P", "B", "1"),
)

FRAME_ENTRIES = (
    FrameEntry(
        "quad-two-way", "two mutually accessible hubs fed from both sides",
        _QUAD,
        fixpoint_masks=(0b0000, 0b0001, 0b0011, 0b1000, 0b1001, 0b1100, 0b1111),
        table_order=_QUAD_ORDER,
        table_names=_QUAD_TABLE,
    ),
)


def frame_entry(name: str) -> FrameEntry:
    return _named(FRAME_ENTRIES, name)


# -- selection frames -----------------------------------------------------

def _centering_min(k, overrides):
    rel = []
    for A in range(1 << k):
        row = [(1 << w) & A for w in range(k)]
        for (OA, w), sel in overrides.items():
            if OA == A:
                row[w] = sel
        rel.append(tuple(row))
    return tuple(rel)


_WO3 = from_well_order(("w0", "w1", "w2"))

# success and centering but no strong density: at w0 the pair {w1,w2}
# selects w1, yet {w2} alone selects w2, with no way through w1
_DENSITY_GAP = SelectionFrame(
    ("w0", "w1", "w2"),
    _centering_min(3, {(0b100, 0): 0b100, (0b110, 0): 0b010}),
)

# functionality dropped: worlds outside the antecedent select all of it
_SELECT_ALL = SelectionFrame(
    ("w0", "w1", "w2"),
    tuple(
        tuple((1 << w) if A >> w & 1 else A for w in range(3))
        for A in range(1 << 3)
    ),
)

SELECTION_ENTRIES = (
    SelectionEntry(
        "well-order-3", "first world at or after, in the order w0 < w1 < w2",
        _WO3,
        properties={"success": True, "centering": True,
                    "functionality": True, "strong_density": True},
    ),
    SelectionEntry(
        "density-gap-3", "a selection for the pair that no single step explains",
        _DENSITY_GAP,
        properties={"success": True, "centering": True,
                    "functionality": True, "strong_density": False},
    ),
    SelectionEntry(
        "select-all-3", "outsiders select the whole antecedent",
        _SELECT_ALL,
        properties={"success": True, "centering": True,
                    "functionality": False, "strong_density": True},
    ),
)


def selection_entry(name: str) -> SelectionEntry:
    return _named(SELECTION_ENTRIES, name)
