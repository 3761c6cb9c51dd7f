import pytest

from condlat import catalog
from condlat import io as io_module
from condlat.errors import InternalInconsistency, ParseError
from condlat.io import (
    FrameDocument,
    LatticeDocument,
    SelectionDocument,
    lattice_dot,
    load_document,
    parse_frame,
    parse_lattice,
    parse_selection,
    serialize_frame,
    serialize_lattice,
    serialize_selection,
)

LATTICE_TEXT = """\
# comment lines and blank lines are skipped

lattice demo
elements 0 a b 1
cover 0 a
cover 0 b
cover a 1
cover b 1
op -> 1 1 1 1 ; 0 1 0 1 ; p 1 1 1 ; 0 a b 1
"""


def test_parse_lattice_with_table():
    # replace the deliberate bad token first
    text = LATTICE_TEXT.replace("p 1 1 1", "b b 1 1")
    doc = parse_lattice(text)
    assert doc.name == "demo"
    assert doc.lattice.names == ("0", "a", "b", "1")
    assert doc.lattice.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert doc.conditional.table[1] == (0, 3, 0, 3)
    assert doc.unary is None


def test_parse_lattice_unknown_name_has_line_number():
    with pytest.raises(ParseError) as info:
        parse_lattice(LATTICE_TEXT)
    assert "line 9" in str(info.value)
    assert info.value.line == 9


def test_parse_lattice_leq_and_cover_mix():
    text = (
        "lattice mix\nelements 0 m 1\ncover 0 m\nleq m 1\nleq 0 1\n"
    )
    doc = parse_lattice(text)
    assert doc.lattice.leq(0, 2) and doc.lattice.top == 2


def test_parse_rejections():
    with pytest.raises(ParseError):
        parse_lattice("elements a b\n")  # no header
    with pytest.raises(ParseError):
        parse_lattice("lattice x\ncover 0 1\n")  # covers before elements
    with pytest.raises(ParseError):
        parse_lattice("lattice x\nelements a;b\n")  # reserved char in name
    with pytest.raises(ParseError):
        parse_lattice("lattice x\nelements a b\nop -> a a\n")  # missing row sep
    with pytest.raises(ParseError):
        load_document("widget x\n")
    with pytest.raises(ParseError):
        load_document("   \n# only comments\n")


def test_lattice_errors_become_parse_errors_and_nothing_else(monkeypatch):
    big = " ".join(f"e{k}" for k in range(65))
    for text in ("lattice x\nelements a b\n",                                # no bounds
                 "lattice x\nelements 0 a b c d 1\ncover 0 a\ncover 0 b\ncover a c\n"
                 "cover a d\ncover b c\ncover b d\ncover c 1\ncover d 1\n",  # no a ∨ b
                 "lattice x\nelements a b\nleq a b\nleq b a\n",              # a cycle
                 f"lattice x\nelements {big}\n"):                             # 65 elements
        with pytest.raises(ParseError, match="not a bounded lattice"):
            parse_lattice(text)

    def broken(names, pairs):
        raise InternalInconsistency("lattice construction bug")

    # a bug while building the lattice is not malformed input
    monkeypatch.setattr(io_module.FiniteLattice, "from_leq", broken)
    with pytest.raises(InternalInconsistency, match="lattice construction bug"):
        parse_lattice("lattice x\nelements 0 1\ncover 0 1\n")


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.name)
def test_lattice_round_trip_catalog_wide(entry):
    doc = LatticeDocument(entry.name, entry.lattice, entry.conditional, entry.unary)
    text = serialize_lattice(doc)
    back = parse_lattice(text)
    assert back.name == entry.name
    assert back.lattice.names == entry.lattice.names
    assert [back.lattice.leq(a, b) for a in range(back.lattice.n)
            for b in range(back.lattice.n)] == [
        entry.lattice.leq(a, b) for a in range(entry.lattice.n)
        for b in range(entry.lattice.n)
    ]
    assert back.conditional.table == entry.conditional.table
    if entry.unary is not None:
        assert back.unary.table == entry.unary.table
    # serialize -> parse -> serialize is a fixed point
    assert serialize_lattice(back) == text


def test_frame_round_trip(quad_frame):
    doc = FrameDocument("quad", quad_frame)
    text = serialize_frame(doc)
    back = parse_frame(text)
    assert back.frame.names == quad_frame.names
    assert back.frame.edges() == quad_frame.edges()
    assert serialize_frame(back) == text


def test_frame_edge_direction():
    doc = parse_frame("frame f\npoints a b\nedge a b\n")
    assert doc.frame.related(0, 1) and not doc.frame.related(1, 0)


def test_frame_reflexive_directive():
    # reflexive needs no names, so it may also come before the points line
    for text in ("frame f\npoints a b\nreflexive\nedge a b\n",
                 "frame f\nreflexive\npoints a b\nedge a b\n"):
        doc = parse_frame(text)
        assert doc.frame.related(0, 0) and doc.frame.related(1, 1)
        assert doc.frame.related(0, 1) and not doc.frame.related(1, 0)


@pytest.mark.parametrize("entry", catalog.SELECTION_ENTRIES, ids=lambda e: e.name)
def test_selection_round_trip_catalog_wide(entry):
    doc = SelectionDocument(entry.name, entry.frame, ())
    text = serialize_selection(doc)
    back = parse_selection(text)
    assert back.frame.rel == entry.frame.rel
    assert back.defaulted == ()
    assert serialize_selection(back) == text


def test_selection_unlisted_subsets_default_to_bare_centering():
    text = "selframe partial\nworlds a b\nrel * : a,a b,b\n"
    doc = parse_selection(text)
    # {a}, {b}, and the empty set were not listed
    assert set(doc.defaulted) == {0b00, 0b01, 0b10}
    # bare centering: members select themselves, outsiders select nothing
    assert doc.frame.rel[0b01] == (0b01, 0)
    assert doc.frame.rel[0b10] == (0, 0b10)
    assert doc.frame.rel[0b00] == (0, 0)
    assert doc.frame.rel[0b11] == (0b01, 0b10)


def test_selection_duplicate_subset_rejected():
    text = "selframe d\nworlds a\nrel a : a,a\nrel a : a,a\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_selection(text)


def test_dot_outputs():
    e = catalog.entry("sasaki-M4")
    dot = lattice_dot(e.lattice, "m4")
    assert dot.startswith('digraph "m4"')
    # one arrow per covering pair
    assert dot.count("->") == len(e.lattice.covers())


def test_dot_escapes_quotes_and_backslashes_in_names_and_labels():
    doc = parse_lattice('lattice x"y\\z\nelements 0 a"b 1\ncover 0 a"b\ncover a"b 1\n')
    dot = lattice_dot(doc.lattice, doc.name).splitlines()
    assert dot[0] == r'digraph "x\"y\\z" {'
    assert r'  n1 [label="a\"b"];' in dot
    dot = lattice_dot(parse_lattice('lattice q"\nelements p\\ "\ncover p\\ "\n').lattice, 'q"')
    assert dot.splitlines() == [r'digraph "q\"" {', "  rankdir=BT;",
                                "  node [shape=plaintext];",
                                r'  n0 [label="p\\"];', r'  n1 [label="\""];',
                                "  n0 -> n1;", "}"]


def test_load_document_dispatch(quad_frame):
    e = catalog.entry("meet-2chain")
    lat_text = serialize_lattice(LatticeDocument("x", e.lattice, e.conditional, None))
    assert isinstance(load_document(lat_text), LatticeDocument)
    frame_text = serialize_frame(FrameDocument("q", quad_frame))
    assert isinstance(load_document(frame_text), FrameDocument)
    sel = catalog.selection_entry("well-order-3")
    sel_text = serialize_selection(SelectionDocument("w", sel.frame, ()))
    assert isinstance(load_document(sel_text), SelectionDocument)


# (parser, header kind, names line, a directive that needs the names line,
#  the same directive naming an unknown name, a directive with stray tokens)
FORMATS = [
    (parse_lattice, "lattice", "elements", "cover a b", "cover a c", "leq a b a"),
    (parse_frame, "frame", "points", "edge a b", "edge a c", "reflexive now please"),
    (parse_selection, "selframe", "worlds", "rel a : a,a", "rel a : a,c", "rel a : a,b,a"),
]

# failure kind -> (document template, line of the error); {kind}, {names},
# {directive} and {unknown} are filled in per format
READER_FAILURES = {
    "wrong-header": ("widget x\n{names} a b\n", 1),
    "missing-header": ("{names} a b\n", 1),
    "header-without-name": ("{kind}\n{names} a b\n", 1),
    "header-with-extra-token": ("{kind} x y\n{names} a b\n", 1),
    "duplicate-names-line": ("{kind} x\n{names} a b\n{names} a b\n", 3),
    "reserved-character": ("{kind} x\n{names} a;b\n", 2),
    "repeated-name": ("# a comment\n{kind} x\n\n{names} a a\n", 4),
    "directive-before-names": ("{kind} x\n{directive}\n{names} a b\n", 2),
    "unknown-directive": ("{kind} x\n{names} a b\nwidget a\n", 3),
    "unknown-name": ("{kind} x\n{names} a b\n{unknown}\n", 3),
    "stray-tokens": ("{kind} x\n{names} a b\n{stray}\n", 3),
    "empty-document": ("# only comments\n\n   \n", 0),
    "missing-names-line": ("{kind} x\n", 0),
}


@pytest.mark.parametrize("kind", READER_FAILURES)
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f[1])
def test_reader_failures_are_parse_errors_at_their_line(fmt, kind):
    parse, header, names, directive, unknown, stray = fmt
    template, line = READER_FAILURES[kind]
    text = template.format(kind=header, names=names, directive=directive,
                           unknown=unknown, stray=stray)
    for read in (parse, load_document):
        with pytest.raises(ParseError) as info:
            read(text)
        assert info.value.line == line
