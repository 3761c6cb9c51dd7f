"""Line-oriented text formats and DOT export.

Three document kinds, each recognized by its first directive:

    lattice NAME          frame NAME            selframe NAME
    elements e0 e1 ...    points p0 p1 ...      worlds w0 w1 ...
    cover a b             reflexive             rel A : w,v w,v ...
    leq a b               edge y x
    op -> row ; row ...
    op neg n0 n1 ...

'#' starts a comment anywhere; blank lines are skipped.  `cover a b`
says a is covered by b, `leq a b` just a <= b (the constructor closes).
Conditional rows list n element names, entry b of row a being the value
at (a, b).  `edge y x` puts y below x in the frame's accessibility
order.  A selection line names the antecedent subset as comma-joined
worlds (or `*` for all of W) and then the selected pairs; subsets with
no line default to centering alone (each member of A selects itself,
everyone else selects nothing), and the parse records which subsets
were defaulted.

Serializers emit a canonical form: parse(serialize(parse(text)))
reproduces the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingBound, NotALattice, NotAPartialOrder, ParseError, TooLarge
from .frames import RelationalFrame
from .lattice import FiniteLattice
from .ops import ConditionalOp, UnaryOp
from .selection import SelectionFrame


@dataclass(frozen=True)
class LatticeDocument:
    name: str
    lattice: FiniteLattice
    conditional: ConditionalOp | None = None
    unary: UnaryOp | None = None


@dataclass(frozen=True)
class FrameDocument:
    name: str
    frame: RelationalFrame


@dataclass(frozen=True)
class SelectionDocument:
    name: str
    frame: SelectionFrame
    defaulted: tuple = ()     # subset masks that fell back to bare centering


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _check_name(tok: str, lineno: int, what: str) -> str:
    if any(ch in tok for ch in ",;:#*") or not tok:
        raise ParseError(f"bad {what} name {tok!r}", lineno)
    return tok


def parse_lattice(text: str) -> LatticeDocument:
    name = None
    elements = None
    rel_pairs = []          # (a, b) with a <= b; covers get closed anyway
    op_rows = None
    neg_row = None
    idx = {}

    def element(tok, lineno):
        if tok not in idx:
            raise ParseError(f"unknown element {tok!r}", lineno)
        return idx[tok]

    for lineno, line in _lines(text):
        parts = line.split()
        key = parts[0]
        if name is None:
            if key != "lattice" or len(parts) != 2:
                raise ParseError("expected `lattice <name>` first", lineno)
            name = parts[1]
        elif key == "elements":
            if elements is not None:
                raise ParseError("duplicate elements line", lineno)
            elements = tuple(_check_name(p, lineno, "element") for p in parts[1:])
            if len(set(elements)) != len(elements) or not elements:
                raise ParseError("element names must be nonempty and distinct", lineno)
            idx = {e: i for i, e in enumerate(elements)}
        elif key in ("cover", "leq"):
            if elements is None:
                raise ParseError("elements line must come before the order", lineno)
            if len(parts) != 3:
                raise ParseError(f"expected `{key} <a> <b>`", lineno)
            rel_pairs.append((element(parts[1], lineno), element(parts[2], lineno)))
        elif key == "op":
            if elements is None:
                raise ParseError("elements line must come before any op", lineno)
            if len(parts) >= 2 and parts[1] == "->":
                if op_rows is not None:
                    raise ParseError("duplicate conditional op", lineno)
                rows = " ".join(parts[2:]).split(";")
                op_rows = []
                for row in rows:
                    toks = row.split()
                    if len(toks) != len(elements):
                        raise ParseError(
                            f"row needs {len(elements)} entries, got {len(toks)}", lineno
                        )
                    op_rows.append(tuple(element(tk, lineno) for tk in toks))
                if len(op_rows) != len(elements):
                    raise ParseError(
                        f"need {len(elements)} rows, got {len(op_rows)}", lineno
                    )
            elif len(parts) >= 2 and parts[1] == "neg":
                if neg_row is not None:
                    raise ParseError("duplicate unary op", lineno)
                toks = parts[2:]
                if len(toks) != len(elements):
                    raise ParseError(
                        f"neg needs {len(elements)} entries, got {len(toks)}", lineno
                    )
                neg_row = tuple(element(tk, lineno) for tk in toks)
            else:
                raise ParseError("op must be `op -> ...` or `op neg ...`", lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if name is None:
        raise ParseError("empty document", 0)
    if elements is None:
        raise ParseError("missing elements line", 0)
    try:
        lattice = FiniteLattice.from_leq(elements, rel_pairs)
    except (NotAPartialOrder, MissingBound, NotALattice, TooLarge) as exc:
        raise ParseError(f"not a bounded lattice: {exc}", 0) from exc
    cond = ConditionalOp(lattice, tuple(op_rows)) if op_rows is not None else None
    neg = UnaryOp(lattice, neg_row) if neg_row is not None else None
    return LatticeDocument(name, lattice, cond, neg)


def serialize_lattice(doc: LatticeDocument) -> str:
    L = doc.lattice
    out = [f"lattice {doc.name}", "elements " + " ".join(L.names)]
    for a, b in L.covers():
        out.append(f"cover {L.names[a]} {L.names[b]}")
    if doc.conditional is not None:
        rows = " ; ".join(
            " ".join(L.names[v] for v in row) for row in doc.conditional.table
        )
        out.append(f"op -> {rows}")
    if doc.unary is not None:
        out.append("op neg " + " ".join(L.names[v] for v in doc.unary.table))
    return "\n".join(out) + "\n"


def parse_frame(text: str) -> FrameDocument:
    name = None
    points = None
    reflexive = False
    edges = []
    for lineno, line in _lines(text):
        parts = line.split()
        key = parts[0]
        if name is None:
            if key != "frame" or len(parts) != 2:
                raise ParseError("expected `frame <name>` first", lineno)
            name = parts[1]
        elif key == "points":
            if points is not None:
                raise ParseError("duplicate points line", lineno)
            points = tuple(_check_name(p, lineno, "point") for p in parts[1:])
            if len(set(points)) != len(points) or not points:
                raise ParseError("point names must be nonempty and distinct", lineno)
        elif key == "reflexive":
            reflexive = True
        elif key == "edge":
            if points is None:
                raise ParseError("points line must come before edges", lineno)
            if len(parts) != 3:
                raise ParseError("expected `edge <y> <x>`", lineno)
            for p in parts[1:]:
                if p not in points:
                    raise ParseError(f"unknown point {p!r}", lineno)
            edges.append((parts[1], parts[2]))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if name is None:
        raise ParseError("empty document", 0)
    if points is None:
        raise ParseError("missing points line", 0)
    return FrameDocument(
        name, RelationalFrame.from_edges(points, edges, reflexive=reflexive)
    )


def serialize_frame(doc: FrameDocument) -> str:
    f = doc.frame
    out = [f"frame {doc.name}", "points " + " ".join(f.names)]
    for y, x in f.edges():
        out.append(f"edge {f.names[y]} {f.names[x]}")
    return "\n".join(out) + "\n"


def _subset_token(names, mask: int) -> str:
    if mask == (1 << len(names)) - 1:
        return "*"
    return ",".join(names[i] for i in range(len(names)) if mask >> i & 1) or ","


def parse_selection(text: str) -> SelectionDocument:
    name = None
    worlds = None
    rows = {}
    idx = {}

    def world(tok, lineno):
        if tok not in idx:
            raise ParseError(f"unknown world {tok!r}", lineno)
        return idx[tok]

    for lineno, line in _lines(text):
        parts = line.split()
        key = parts[0]
        if name is None:
            if key != "selframe" or len(parts) != 2:
                raise ParseError("expected `selframe <name>` first", lineno)
            name = parts[1]
        elif key == "worlds":
            if worlds is not None:
                raise ParseError("duplicate worlds line", lineno)
            worlds = tuple(_check_name(p, lineno, "world") for p in parts[1:])
            if len(set(worlds)) != len(worlds) or not worlds:
                raise ParseError("world names must be nonempty and distinct", lineno)
            idx = {w: i for i, w in enumerate(worlds)}
        elif key == "rel":
            if worlds is None:
                raise ParseError("worlds line must come before rel lines", lineno)
            if len(parts) < 3 or parts[2] != ":":
                raise ParseError("expected `rel <subset> : <w>,<v> ...`", lineno)
            tok = parts[1]
            if tok == "*":
                A = (1 << len(worlds)) - 1
            elif tok == ",":
                A = 0
            else:
                A = 0
                for w in tok.split(","):
                    A |= 1 << world(w, lineno)
            if A in rows:
                raise ParseError(f"duplicate rel line for subset {tok!r}", lineno)
            sel = [0] * len(worlds)
            for pair in parts[3:]:
                wv = pair.split(",")
                if len(wv) != 2:
                    raise ParseError(f"expected `<w>,<v>`, got {pair!r}", lineno)
                sel[world(wv[0], lineno)] |= 1 << world(wv[1], lineno)
            rows[A] = tuple(sel)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if name is None:
        raise ParseError("empty document", 0)
    if worlds is None:
        raise ParseError("missing worlds line", 0)
    k = len(worlds)
    defaulted = []
    rel = []
    for A in range(1 << k):
        if A in rows:
            rel.append(rows[A])
        else:
            # bare centering: members select themselves, the rest nothing
            rel.append(tuple((1 << w) & A and (1 << w) or 0 for w in range(k)))
            defaulted.append(A)
    return SelectionDocument(name, SelectionFrame(worlds, tuple(rel)), tuple(defaulted))


def serialize_selection(doc: SelectionDocument) -> str:
    f = doc.frame
    out = [f"selframe {doc.name}", "worlds " + " ".join(f.names)]
    for A in range(1 << f.k):
        pairs = [
            f"{f.names[w]},{f.names[v]}"
            for w in range(f.k)
            for v in range(f.k)
            if f.rel[A][w] >> v & 1
        ]
        out.append(f"rel {_subset_token(f.names, A)} : " + " ".join(pairs))
    return "\n".join(out) + "\n"


def load_document(text: str):
    """Dispatch on the first directive."""
    for lineno, line in _lines(text):
        key = line.split()[0]
        if key == "lattice":
            return parse_lattice(text)
        if key == "frame":
            return parse_frame(text)
        if key == "selframe":
            return parse_selection(text)
        raise ParseError(f"unrecognized document kind {key!r}", lineno)
    raise ParseError("empty document", 0)


# -- DOT ------------------------------------------------------------------

def lattice_dot(L: FiniteLattice, name: str = "lattice") -> str:
    """Hasse diagram, bottom at the bottom."""
    out = [f'digraph "{name}" {{', "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, nm in enumerate(L.names):
        out.append(f'  n{i} [label="{nm}"];')
    for a, b in L.covers():
        out.append(f"  n{a} -> n{b};")
    out.append("}")
    return "\n".join(out) + "\n"


def frame_dot(f: RelationalFrame, name: str = "frame") -> str:
    out = [f'digraph "{name}" {{', "  node [shape=circle];"]
    for i, nm in enumerate(f.names):
        out.append(f'  n{i} [label="{nm}"];')
    for y, x in f.edges():
        out.append(f"  n{y} -> n{x};")
    out.append("}")
    return "\n".join(out) + "\n"
