"""Expected answers computed from the definitions, independently of condlat.

Nothing here imports the package under test.  Each function restates a
definition from the README (axioms, residuation, the frame conditional,
well-order selection, threshold confidence) and evaluates it by brute
force, vectorized with numpy where the space is large.  The benchmark
compares every verdict the package returns against these answers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

# -- the 3-chain census --------------------------------------------------

CHAIN3_TABLES = 3 ** 9
TOP, BOT = 2, 0

UNARY = ("P1", "SEMI", "INV", "ID")
BINARY = ("P2", "P3", "MP", "WM", "NEGIMP")
TERNARY = ("P4", "P5", "NORM", "FLAT")
ARITY = {**{a: 1 for a in UNARY}, **{a: 2 for a in BINARY}, **{a: 3 for a in TERNARY}}


def chain3_rows(index: int) -> tuple:
    """Table number ``index`` in the lexicographic order of its 9 cells."""
    cells = [index // 3 ** (8 - k) % 3 for k in range(9)]
    return tuple(tuple(cells[3 * a:3 * a + 3]) for a in range(3))


def _grid(arity):
    """Instance coordinates in lexicographic order, each shaped (1, 3**arity)."""
    coords = np.array(list(product(range(3), repeat=arity)), dtype=np.int64).T
    return [c[None, :] for c in coords]


def _violations(T):
    """Axiom name -> (N, 3**arity) bool array of violated instances.

    On a chain, meet is min and the order is <= on indices.
    """
    N = T.shape[0]
    flat = T.reshape(N, 9)

    def at(x, y):
        x, y = np.broadcast_arrays(x, y)
        idx = np.broadcast_to(x * 3 + y, (N, x.shape[1]))
        return np.take_along_axis(flat, idx, axis=1)

    (a1,) = _grid(1)
    a2, b2 = _grid(2)
    a3, b3, c3 = _grid(3)
    top1 = np.full_like(a1, TOP)
    bot1, bot2 = np.zeros_like(a1), np.zeros_like(b2)
    inner = at(np.minimum(a3, b3), c3)
    return {
        "P1": at(top1, a1) > a1,
        "P2": np.minimum(a2, b2) > at(a2, b2),
        "P3": at(a2, b2) > at(a2, np.minimum(a2, b2)),
        "P4": at(a3, np.minimum(b3, c3)) > at(a3, b3),
        "P5": at(a3, inner) > inner,
        "MP": np.minimum(a2, at(a2, b2)) > b2,
        "WM": b2 > at(a2, b2),
        "SEMI": np.minimum(a1, at(a1, bot1)) != BOT,
        "INV": at(at(a1, bot1), bot1) != a1,
        "ID": at(a1, a1) != TOP,
        "NORM": np.minimum(at(a3, b3), at(a3, c3)) > at(a3, np.minimum(b3, c3)),
        "NEGIMP": at(at(a2, b2), bot2) > at(a2, at(b2, bot2)),
        "FLAT": at(a3, inner) != inner,
    }


def _decode(index, arity):
    return tuple(index // 3 ** (arity - 1 - k) % 3 for k in range(arity))


def _chain3_tensor():
    idx = np.arange(CHAIN3_TABLES, dtype=np.int64)
    return np.stack([idx // 3 ** (8 - k) % 3 for k in range(9)], axis=1).reshape(-1, 3, 3)


def chain3_census():
    """Per table: {axiom: (holds, lexicographically first witness)},
    the class label and the first residuation failure.

    Returned as three parallel lists indexed by table number.
    """
    T = _chain3_tensor()
    viol = _violations(T)
    first = {ax: np.where(v.any(axis=1), v.argmax(axis=1), -1) for ax, v in viol.items()}

    a3, b3, c3 = (x[0] for x in _grid(3))
    left = np.minimum(a3, b3)[None, :] <= c3[None, :]
    right = a3[None, :] <= T[:, b3, c3]
    bad = left != right
    res_first = np.where(bad.any(axis=1), bad.argmax(axis=1), -1)

    profiles, labels, residuation = [], [], []
    for t in range(CHAIN3_TABLES):
        prof = {}
        for ax, f in first.items():
            w = int(f[t])
            prof[ax] = (True, None) if w < 0 else (False, _decode(w, ARITY[ax]))
        profiles.append(prof)
        labels.append(class_label({ax: h for ax, (h, _) in prof.items()}))
        r = int(res_first[t])
        if r < 0:
            residuation.append(None)
        else:
            a, b, c = _decode(r, 3)
            residuation.append((a, b, c, "forward" if left[0, r] else "backward"))
    return profiles, labels, residuation


def class_label(p) -> str:
    """The most specific class, from the README's class definitions."""
    if not all(p[ax] for ax in ("P1", "P2", "P3", "P4", "P5")):
        return "None"
    mp, wm, inv, semi = p["MP"], p["WM"], p["INV"], p["SEMI"]
    if mp and wm and inv:
        return "ClassicalMaterial"
    if mp and wm:
        return "Heyting"
    if mp and inv:
        return "SasakiOML"
    if semi and wm:
        return "ProtoHeyting"
    if semi and inv:
        return "SasakiOL"
    if mp:
        return "PreconditionalWithMP"
    if semi:
        return "PreconditionalWithSemicomp"
    return "Preconditional"


SEARCH_AXIOMS = ("P1", "P2", "P3", "P4", "P5", "MP", "WM")


def chain3_first_witness():
    """assignment -> number of the lexicographically first table on the
    3-chain with that profile, or None, for every split of SEARCH_AXIOMS
    (assignment[i] is 0 free, 1 required, 2 forbidden).

    The search assigns cells in row-major order with ascending values, so
    its first witness is the lexicographically first table.
    """
    viol = _violations(_chain3_tensor())
    codes = sum(np.where(viol[ax].any(axis=1), 0, 1 << i)
                for i, ax in enumerate(SEARCH_AXIOMS))
    present, first = np.unique(codes, return_index=True)
    first_by_code = dict(zip(present.tolist(), first.tolist()))
    out = {}
    for assign in product((0, 1, 2), repeat=len(SEARCH_AXIOMS)):
        req = sum(1 << i for i, k in enumerate(assign) if k == 1)
        forb = sum(1 << i for i, k in enumerate(assign) if k == 2)
        hits = [t for code, t in first_by_code.items()
                if code & req == req and code & forb == 0]
        out[assign] = min(hits) if hits else None
    return out


# -- relational frames ---------------------------------------------------

class FrameClosure:
    """arrow(full, A) on a frame given by predecessor masks: the points all
    of whose predecessors have a successor inside A."""

    def __init__(self, pred):
        self.m = m = len(pred)
        self.pred = tuple(pred)
        self.succ = tuple(sum(1 << x for x in range(m) if pred[x] >> y & 1)
                          for y in range(m))

    def __call__(self, A: int) -> int:
        good = sum(1 << y for y in range(self.m) if self.succ[y] & A)
        return sum(1 << x for x in range(self.m) if self.pred[x] & ~good == 0)

    def fixpoints(self) -> tuple:
        return tuple(A for A in range(1 << self.m) if self(A) == A)

    def arrows(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A -> B elementwise: the points x such that every predecessor
        of x in A has a successor in A & B."""
        AB = A & B
        good = sum(((self.succ[y] & AB) != 0).astype(np.int64) << y for y in range(self.m))
        return sum(((self.pred[x] & A & ~good) == 0).astype(np.int64) << x
                   for x in range(self.m))


# -- algebras of sets ----------------------------------------------------

# Axioms checked on fixpoint algebras: the core five hold on every one
# (theorem); NORM and FLAT fail on most algebras of more than 16
# elements, where the package samples ternary checks.
SET_AXIOMS = ("P1", "P2", "P3", "P4", "P5", "NORM", "FLAT")


def set_algebra_violations(S: np.ndarray, T: np.ndarray) -> dict:
    """Axiom -> bool array of violated instances, for the algebra whose
    elements are the sets S (bitmasks, ascending, closed under
    intersection, so meet is & and the order is inclusion) and whose
    conditional is T[i, j] = S[i] -> S[j] as a bitmask."""
    index = np.full(int(S.max()) + 1, -1, dtype=np.int64)
    index[S] = np.arange(len(S))

    def at(x, y):
        i, j = index[x], index[y]
        if (i < 0).any() or (j < 0).any():
            raise AssertionError("the sets are not closed under the conditional and meet")
        return T[i, j]

    def above(x, y):  # x is not below y
        return (x & ~y) != 0

    a1 = S
    a2, b2 = S[:, None], S[None, :]
    a3, b3, c3 = S[:, None, None], S[None, :, None], S[None, None, :]
    inner = at(a3 & b3, c3)
    return {
        "P1": above(at(S[-1], a1), a1),
        "P2": above(a2 & b2, at(a2, b2)),
        "P3": above(at(a2, b2), at(a2, a2 & b2)),
        "P4": above(at(a3, b3 & c3), at(a3, b3)),
        "P5": above(at(a3, inner), inner),
        "NORM": above(at(a3, b3) & at(a3, c3), at(a3, b3 & c3)),
        "FLAT": at(a3, inner) != inner,
    }


# -- well-order selection frames -----------------------------------------

def well_order_table(order) -> tuple:
    """The conditional of first-at-or-after selection, as subset masks.

    At world w and antecedent A, the selected world is the first member of
    A at or after w in the order; A -> B holds at w when it lies in B (or
    when nothing is selected).
    """
    k = len(order)
    rank = {w: i for i, w in enumerate(order)}
    rows = []
    for A in range(1 << k):
        sel = []
        for w in range(k):
            hit = next((v for v in order[rank[w]:] if A >> v & 1), None)
            sel.append(0 if hit is None else 1 << hit)
        rows.append(tuple(sum(1 << w for w in range(k) if sel[w] & ~B == 0)
                          for B in range(1 << k)))
    return tuple(rows)


# -- threshold confidence ------------------------------------------------

def confidence_arrow(k, self_mass, other_mass, threshold, A, B) -> int:
    """Worlds w with mu_w(B | A) >= threshold, exactly; a null antecedent
    puts every world in (the package default)."""
    out = 0
    for w in range(k):
        def mu(S):
            n = bin(S).count("1")
            return self_mass + (n - 1) * other_mass if S >> w & 1 else n * other_mass
        base = mu(A)
        if base == 0 or mu(A & B) / base >= threshold:
            out |= 1 << w
    return out


def confidence_table(k, self_mass, other_mass, threshold) -> np.ndarray:
    """The whole arrow table from the definition, by integer cross
    multiplication over a common denominator."""
    self_mass, other_mass, threshold = map(Fraction, (self_mass, other_mass, threshold))
    D = self_mass.denominator * other_mass.denominator
    s, o = int(self_mass * D), int(other_mass * D)
    N = 1 << k
    masks = np.arange(N, dtype=np.int64)
    count = np.array([bin(x).count("1") for x in range(N)], dtype=np.int64)
    AB = masks[:, None] & masks[None, :]
    table = np.zeros((N, N), dtype=np.int64)
    for w in range(k):
        def mu(S):
            inside = S >> w & 1
            return inside * s + (count[S] - inside) * o
        mu_a = mu(masks)[:, None]
        ok = (mu_a == 0) | (threshold.denominator * mu(AB) >= threshold.numerator * mu_a)
        table |= ok.astype(np.int64) << w
    return table


def interval_family(k: int) -> tuple:
    """The empty set and every index interval of the worlds."""
    return (0,) + tuple(sum(1 << w for w in range(i, j + 1))
                        for i in range(k) for j in range(i, k))


def confidence_verdicts(T: np.ndarray, k: int) -> dict:
    """Axiom -> holds, by brute force over every instance (NORM over the
    interval family only, which is what the package documents for spaces
    other than the reference one)."""
    N = 1 << k
    full = N - 1
    m = np.arange(N, dtype=np.int64)
    A, B, C = m[:, None, None], m[None, :, None], m[None, None, :]
    inner = T[A & B, C]
    fam = np.array(interval_family(k), dtype=np.int64)
    FA, FB, FC = fam[:, None, None], fam[None, :, None], fam[None, None, :]
    return {
        "P1": not (T[full, :] & ~m & full).any(),
        "P2": not ((m[:, None] & m[None, :]) & ~T).any(),
        "P3": not (T & ~T[m[:, None], m[:, None] & m[None, :]]).any(),
        "P4": not (T[A, B & C] & ~T[A, B]).any(),
        "P5": not (T[A, inner] & ~inner).any(),
        "MP": not (m[:, None] & T & ~m[None, :]).any(),
        "NORM": not (T[FA, FB] & T[FA, FC] & ~T[FA, FB & FC]).any(),
    }


def confidence_violates(T: np.ndarray, axiom: str, witness) -> bool:
    """Is the reported (sets..., world) a genuine violation at that world?"""
    *sets, w = witness
    bit = 1 << w
    if axiom == "P1":
        (a,) = sets
        return bool(T[-1, a] & ~a & bit)
    if axiom == "P2":
        a, b = sets
        return bool(a & b & ~T[a, b] & bit)
    if axiom == "P3":
        a, b = sets
        return bool(T[a, b] & ~T[a, a & b] & bit)
    if axiom == "MP":
        a, b = sets
        return bool(a & T[a, b] & ~b & bit)
    if axiom == "P4":
        a, b, c = sets
        return bool(T[a, b & c] & ~T[a, b] & bit)
    if axiom == "P5":
        a, b, c = sets
        inner = T[a & b, c]
        return bool(T[a, inner] & ~inner & bit)
    if axiom == "NORM":
        a, b, c = sets
        return bool(T[a, b] & T[a, c] & ~T[a, b & c] & bit)
    raise ValueError(axiom)
