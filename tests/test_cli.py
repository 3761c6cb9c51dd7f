import dataclasses
import time

import pytest

from condlat import catalog
from condlat.cli import main
from condlat.frames import RelationalFrame
from condlat.search import INVENTORY
from condlat.io import (
    FrameDocument,
    LatticeDocument,
    SelectionDocument,
    parse_lattice,
    serialize_frame,
    serialize_lattice,
    serialize_selection,
)


def write_entry(tmp_path, name):
    e = catalog.entry(name)
    p = tmp_path / f"{name}.lat"
    p.write_text(serialize_lattice(LatticeDocument(name, e.lattice, e.conditional, e.unary)))
    return str(p)


def test_check_failing_table_exits_one(tmp_path, capsys):
    path = write_entry(tmp_path, "antitone-step-3chain")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "P4 fails at (0,h,0)" in out
    assert "P1 holds" in out


def test_check_passing_subset_exits_zero(tmp_path):
    path = write_entry(tmp_path, "antitone-step-3chain")
    assert main(["check", path, "--axioms", "P1,P2,P3,P5"]) == 0


def test_check_unknown_axiom_exits_two(tmp_path, capsys):
    path = write_entry(tmp_path, "meet-2chain")
    with pytest.raises(SystemExit) as info:
        main(["check", path, "--axioms", "P9"])
    assert info.value.code == 2
    assert "unknown axiom" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "search"])
def test_unary_axioms_are_refused_with_the_binary_list(tmp_path, capsys, command):
    argv = ([command, write_entry(tmp_path, "meet-2chain"), "--axioms", "PC-ANTI"]
            if command == "check" else [command, "--minimal", "--require", "PC-TOP"])
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown axiom" in err
    choices = err.split(";")[1]
    assert "FLAT" in choices and "PC-" not in choices


def test_check_malformed_file_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.lat"
    p.write_text("lattice x\nelements a b\ncover a c\n")
    assert main(["check", str(p)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_check_missing_table_exits_two(tmp_path, capsys):
    p = tmp_path / "no-op.lat"
    p.write_text("lattice x\nelements a b\ncover a b\n")
    with pytest.raises(SystemExit) as info:
        main(["check", str(p)])
    assert info.value.code == 2


def test_classify_proto_heyting(tmp_path, capsys):
    path = write_entry(tmp_path, "tail-constant-4chain")
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "ProtoHeyting" in out
    assert "MP: fails" in out


def test_frame_command_lists_fixpoints(tmp_path, capsys):
    fe = catalog.frame_entry("quad-two-way")
    p = tmp_path / "quad.frame"
    p.write_text(serialize_frame(FrameDocument("quad", fe.frame)))
    assert main(["frame", str(p)]) == 0
    out = capsys.readouterr().out
    assert "7 fixpoints" in out
    assert "{x,y,w,z}" in out
    # 2^40 fixpoints: refused after listing 65 of them, not after 2^40 closures
    big = tmp_path / "discrete.frame"
    big.write_text(serialize_frame(FrameDocument("discrete", RelationalFrame.from_edges(
        [f"p{i}" for i in range(40)], (), reflexive=True))))
    t0 = time.perf_counter()
    assert main(["frame", str(big)]) == 1
    assert time.perf_counter() - t0 < 5
    assert "TooLarge: the 40-point frame has more than 64 fixpoints" in capsys.readouterr().err


def test_represent_command(tmp_path, capsys):
    path = write_entry(tmp_path, "residual-3chain")
    assert main(["represent", path]) == 0
    out = capsys.readouterr().out
    assert "isomorphic to its fixpoints: True" in out
    assert "embedding onto open fixpoints: True" in out
    dot = tmp_path / "residual.dot"
    assert main(["represent", path, "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")

    bad = write_entry(tmp_path, "const-top-2chain")
    assert main(["represent", bad]) == 1
    assert "not a preconditional" in capsys.readouterr().out


def test_selection_command_reports_defaults(tmp_path, capsys):
    p = tmp_path / "partial.self"
    p.write_text("selframe partial\nworlds a b\nrel * : a,a b,b\n")
    assert main(["selection", str(p)]) == 0
    out = capsys.readouterr().out
    assert "defaulted to bare centering" in out
    assert "success: holds" in out


def test_selection_command_flags_broken_centering(tmp_path, capsys):
    # a frame where a member of the antecedent selects its neighbour
    p = tmp_path / "bad.self"
    p.write_text("selframe bad\nworlds a b\nrel a,b : a,b b,b\n")
    assert main(["selection", str(p)]) == 1
    assert "centering: fails" in capsys.readouterr().out


def test_search_command_emits_readable_witness(tmp_path, capsys):
    path = write_entry(tmp_path, "material-B4")
    assert main([
        "search", "--lattice", path,
        "--require", "P1,P2,P3,P4,P5,MP,ID,NORM,NEGIMP",
        "--forbid", "WM",
    ]) == 0
    out = capsys.readouterr().out
    assert "witnesses=1" in out
    # the table block parses back and has the promised profile
    block = out[out.index("lattice"):]
    doc = parse_lattice(block)
    assert doc.conditional.table == ((3, 3, 3, 3), (0, 3, 0, 3),
                                     (1, 1, 3, 3), (0, 1, 2, 3))


def test_search_no_witness_exits_one(tmp_path):
    # MP and WM force the top row to the identity, so P1 cannot fail
    path = write_entry(tmp_path, "meet-2chain")
    assert main(["search", "--lattice", path,
                 "--require", "MP,WM", "--forbid", "P1"]) == 1


def test_search_minimal_walks_whole_inventory_without_witness(capsys):
    assert main(["search", "--minimal", "--require", "MP,WM", "--forbid", "P1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:10] == [f"{label}: nodes=0 exhausted=True" for label, _ in INVENTORY]
    assert lines[10:] == ["no witness on any of the 10 inventory lattices"]


def test_search_minimal_prints_first_witness(capsys):
    assert main(["search", "--minimal", "--require", "P1,P2,P3,P5", "--forbid", "P4"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()[:4]] == [
        "point", "chain2", "chain3", "witness on chain3 (3 elements)"]
    doc = parse_lattice(out[out.index("lattice"):])
    assert doc.name == "chain3"
    assert doc.conditional.table == ((1, 1, 1), (2, 1, 1), (0, 1, 2))


def test_prob_arrow_round_trip(capsys):
    assert main(["prob", "arrow", "1,2,3", "2,3"]) == 0
    assert capsys.readouterr().out.strip() == "2,3"
    assert main(["prob", "arrow", "-", "-"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ",".join(str(w) for w in range(11))


def test_prob_arrow_takes_the_union_of_repeated_indices(capsys):
    assert main(["prob", "arrow", "1,1", "1"]) == 0
    repeated = capsys.readouterr().out.strip()
    assert main(["prob", "arrow", "1", "1"]) == 0
    assert repeated == capsys.readouterr().out.strip() == ",".join(str(w) for w in range(11))


@pytest.mark.parametrize("subset", ["11", "0,11", "-1", "x"])
def test_prob_arrow_rejects_indices_outside_the_space(capsys, subset):
    with pytest.raises(SystemExit) as info:
        main(["prob", "arrow", subset, "1"])
    assert info.value.code == 2
    assert "world indices 0..10" in capsys.readouterr().err


def test_prob_verify_small_sample(capsys):
    assert main(["prob", "verify"]) == 0
    out = capsys.readouterr().out
    assert "P5 holds (exhaustive, 8589934592 instances)" in out
    assert "NORM fails" in out
    assert "cross-checked" in out


def test_report_file_records(tmp_path):
    path = write_entry(tmp_path, "meet-2chain")
    report = tmp_path / "report.txt"
    main(["check", path, "--report", str(report)])
    lines = report.read_text().splitlines()
    assert len(lines) == 13
    assert all(line.startswith("ok=") for line in lines)
    assert any("check=WM" in line and "ok=false" in line for line in lines)


def test_dot_flag_writes_hasse(tmp_path):
    path = write_entry(tmp_path, "sasaki-M4")
    dot = tmp_path / "m4.dot"
    main(["classify", path, "--dot", str(dot)])
    assert dot.read_text().startswith("digraph")


def test_demo_filter_subset(capsys):
    assert main(["demo", "--filter", "pinned:"]) == 0
    out = capsys.readouterr().out
    assert "PASS pinned:twin-peaks-normality" in out
    assert "0 failures" in out


def test_demo_detects_catalog_mutation(monkeypatch, capsys):
    entries = []
    for e in catalog.ENTRIES:
        if e.name == "meet-2chain":
            rows = [list(r) for r in e.conditional.table]
            rows[0][0] ^= 1
            bad = dataclasses.replace(
                e,
                conditional=type(e.conditional)(
                    e.conditional.lattice, tuple(tuple(r) for r in rows)
                ),
            )
            entries.append(bad)
        else:
            entries.append(e)
    monkeypatch.setattr(catalog, "ENTRIES", tuple(entries))
    assert main(["demo", "--filter", "meet-2chain"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "meet-2chain" in out
