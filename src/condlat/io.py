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


def _header(lines):
    """The first directive of a document, split: (lineno, parts)."""
    for lineno, line in lines:
        return lineno, line.split()
    raise ParseError("empty document", 0)


class _Reader:
    """What the three formats share: the `<kind> <name>` header, the one
    names line `names_key` and the lookup of the names it lists (`what`
    says what they name, as in "unknown element").  Raises every error
    that is not about a format's own directives."""

    def __init__(self, kind: str, names_key: str, what: str):
        self.kind, self.names_key, self.what = kind, names_key, what
        self.name = None
        self.names = None
        self.index = {}

    def directives(self, text: str, needs_names: dict):
        """Yield (lineno, key, args) for each of the format's own
        directives.  needs_names maps each of them to what the names line
        must come before, or to None where it may come first."""
        lines = _lines(text)
        lineno, parts = _header(lines)
        if parts[0] != self.kind or len(parts) != 2:
            raise ParseError(f"expected `{self.kind} <name>` first", lineno)
        self.name = parts[1]
        for lineno, line in lines:
            key, *args = line.split()
            if key == self.names_key:
                self._read_names(args, lineno)
            elif key not in needs_names:
                raise ParseError(f"unknown directive {key!r}", lineno)
            elif needs_names[key] and self.names is None:
                raise ParseError(
                    f"{self.names_key} line must come before {needs_names[key]}", lineno)
            else:
                yield lineno, key, args
        if self.names is None:
            raise ParseError(f"missing {self.names_key} line", 0)

    def _read_names(self, args, lineno):
        if self.names is not None:
            raise ParseError(f"duplicate {self.names_key} line", lineno)
        names = tuple(_check_name(p, lineno, self.what) for p in args)
        if len(set(names)) != len(names) or not names:
            raise ParseError(f"{self.what} names must be nonempty and distinct", lineno)
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    def look_up(self, tok: str, lineno: int) -> int:
        if tok not in self.index:
            raise ParseError(f"unknown {self.what} {tok!r}", lineno)
        return self.index[tok]


def parse_lattice(text: str) -> LatticeDocument:
    r = _Reader("lattice", "elements", "element")
    rel_pairs = []          # (a, b) with a <= b; covers get closed anyway
    op_rows = None
    neg_row = None
    own = {"cover": "the order", "leq": "the order", "op": "any op"}
    for lineno, key, args in r.directives(text, own):
        n = len(r.names)
        if key in ("cover", "leq"):
            if len(args) != 2:
                raise ParseError(f"expected `{key} <a> <b>`", lineno)
            rel_pairs.append(tuple(r.look_up(tk, lineno) for tk in args))
        elif args[:1] == ["->"]:
            if op_rows is not None:
                raise ParseError("duplicate conditional op", lineno)
            op_rows = []
            for row in " ".join(args[1:]).split(";"):
                toks = row.split()
                if len(toks) != n:
                    raise ParseError(f"row needs {n} entries, got {len(toks)}", lineno)
                op_rows.append(tuple(r.look_up(tk, lineno) for tk in toks))
            if len(op_rows) != n:
                raise ParseError(f"need {n} rows, got {len(op_rows)}", lineno)
        elif args[:1] == ["neg"]:
            if neg_row is not None:
                raise ParseError("duplicate unary op", lineno)
            if len(args) - 1 != n:
                raise ParseError(f"neg needs {n} entries, got {len(args) - 1}", lineno)
            neg_row = tuple(r.look_up(tk, lineno) for tk in args[1:])
        else:
            raise ParseError("op must be `op -> ...` or `op neg ...`", lineno)
    try:
        lattice = FiniteLattice.from_leq(r.names, rel_pairs)
    except (NotAPartialOrder, MissingBound, NotALattice, TooLarge) as exc:
        raise ParseError(f"not a bounded lattice: {exc}", 0) from exc
    cond = ConditionalOp(lattice, tuple(op_rows)) if op_rows is not None else None
    neg = UnaryOp(lattice, neg_row) if neg_row is not None else None
    return LatticeDocument(r.name, lattice, cond, neg)


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
    r = _Reader("frame", "points", "point")
    reflexive = False
    edges = []
    for lineno, key, args in r.directives(text, {"reflexive": None, "edge": "edges"}):
        if key == "reflexive":
            if args:
                raise ParseError("expected `reflexive` alone", lineno)
            reflexive = True
        else:
            if len(args) != 2:
                raise ParseError("expected `edge <y> <x>`", lineno)
            for p in args:
                r.look_up(p, lineno)
            edges.append(tuple(args))
    return FrameDocument(
        r.name, RelationalFrame.from_edges(r.names, edges, reflexive=reflexive)
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
    r = _Reader("selframe", "worlds", "world")
    rows = {}
    for lineno, _, args in r.directives(text, {"rel": "rel lines"}):
        k = len(r.names)
        if len(args) < 2 or args[1] != ":":
            raise ParseError("expected `rel <subset> : <w>,<v> ...`", lineno)
        tok = args[0]
        if tok == "*":
            A = (1 << k) - 1
        elif tok == ",":
            A = 0
        else:
            A = 0
            for w in tok.split(","):
                A |= 1 << r.look_up(w, lineno)
        if A in rows:
            raise ParseError(f"duplicate rel line for subset {tok!r}", lineno)
        sel = [0] * k
        for pair in args[2:]:
            wv = pair.split(",")
            if len(wv) != 2:
                raise ParseError(f"expected `<w>,<v>`, got {pair!r}", lineno)
            sel[r.look_up(wv[0], lineno)] |= 1 << r.look_up(wv[1], lineno)
        rows[A] = tuple(sel)
    k = len(r.names)
    defaulted = []
    rel = []
    for A in range(1 << k):
        if A in rows:
            rel.append(rows[A])
        else:
            # bare centering: members select themselves, the rest nothing
            rel.append(tuple((1 << w) & A and (1 << w) or 0 for w in range(k)))
            defaulted.append(A)
    return SelectionDocument(r.name, SelectionFrame(r.names, tuple(rel)), tuple(defaulted))


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


_PARSERS = {"lattice": parse_lattice, "frame": parse_frame, "selframe": parse_selection}


def load_document(text: str):
    """Dispatch on the first directive."""
    lineno, parts = _header(_lines(text))
    if parts[0] not in _PARSERS:
        raise ParseError(f"unrecognized document kind {parts[0]!r}", lineno)
    return _PARSERS[parts[0]](text)


# -- DOT ------------------------------------------------------------------

def lattice_dot(L: FiniteLattice, name: str = "lattice") -> str:
    """Hasse diagram, bottom at the bottom: nodes n0, n1, ... labelled by
    the element names, one edge per covering pair; the graph name and
    every label quoted with \\ and " escaped."""
    def quote(text):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    out = [f"digraph {quote(name)} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    out += [f"  n{i} [label={quote(nm)}];" for i, nm in enumerate(L.names)]
    out += [f"  n{a} -> n{b};" for a, b in L.covers()]
    return "\n".join(out + ["}"]) + "\n"
