import dataclasses
import hashlib
import os
import time
from pathlib import Path

import pytest

from condlat import catalog, cli
from condlat.cli import main
from condlat.errors import EmbeddingNotVerified
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


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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
    assert "  lattice isomorphic to its fixpoints: True (candidate map)\n" in out
    assert "embedding onto open fixpoints: True" in out
    dot = tmp_path / "residual.dot"
    assert main(["represent", path, "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")

    bad = write_entry(tmp_path, "const-top-2chain")
    assert main(["represent", bad]) == 1
    assert "not a preconditional" in capsys.readouterr().out


def test_represent_reports_a_candidate_map_with_two_images_swapped(tmp_path, capsys, monkeypatch):
    build = cli.build_pair_frame

    def swapped(lattice, op):
        pf = build(lattice, op)
        hat = list(pf.hat)
        hat[0], hat[1] = hat[1], hat[0]
        return dataclasses.replace(pf, hat=tuple(hat))

    monkeypatch.setattr(cli, "build_pair_frame", swapped)
    assert main(["represent", write_entry(tmp_path, "residual-3chain")]) == 1
    out = capsys.readouterr().out
    assert ("  lattice isomorphic to its fixpoints: False "
            "(pair-frame embedding failed: meet not carried at (0,h))\n") in out
    assert "embedding onto open fixpoints: True" in out


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


@pytest.mark.parametrize("where", [["--lattice", "meet-2chain.lat"], ["--minimal"]],
                         ids=["lattice", "minimal"])
def test_search_refuses_a_negative_budget(capsys, where):
    where = [str(FIXTURES / a) if a.endswith(".lat") else a for a in where]
    with pytest.raises(SystemExit) as info:
        main(["search", *where, "--require", "MP", "--budget", "-5"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: node budget -5 is negative\n")


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


def test_search_minimal_report_records_nodes_over_the_trail(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(["search", "--minimal", "--require", "P1,P2,P3,P5", "--forbid", "P4",
                 "--report", str(report)]) == 0
    trail = [line for line in capsys.readouterr().out.splitlines() if "nodes=" in line]
    nodes = sum(int(line.split("nodes=")[1].split()[0]) for line in trail)
    assert nodes > 0
    assert report.read_text() == (f"ok=true check=search-minimal lattice=chain3 "
                                  f"lattices=3 nodes={nodes}\n")
    assert main(["search", "--minimal", "--require", "MP,WM", "--forbid", "P1",
                 "--report", str(report)]) == 1
    assert report.read_text() == ("ok=false check=search-minimal lattice=- "
                                  "lattices=10 nodes=0\n")


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


@pytest.mark.parametrize("subsets", [["1,2", "3"], ["-"]])
def test_prob_verify_refuses_stray_subsets(capsys, subsets):
    with pytest.raises(SystemExit) as info:
        main(["prob", "verify"] + subsets)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(subsets)}\n")
    assert captured.out == ""


def test_prob_arrow_refuses_a_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["prob", "arrow", "1", "1", "--seed", "9"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("error: unrecognized arguments: --seed 9\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["demo"], ["prob", "verify"], ["prob", "sweep"]],
                         ids=" ".join)
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(
        "error: argument --seed: expected a nonnegative integer, got '-1'\n")
    assert captured.out == ""


@pytest.mark.parametrize("worlds", ["0", "1", "13"])
def test_prob_sweep_refuses_worlds_outside_the_table_limit(capsys, worlds):
    with pytest.raises(SystemExit) as info:
        main(["prob", "sweep", "--worlds", worlds])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --worlds: invalid choice: {worlds} (choose from 2, 3," in captured.err
    assert captured.out == ""


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises, as on a pipe
    that ``head -1`` closed.  Its descriptor is a scratch file's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ["prob", "sweep", "--worlds", "4"],
    ["demo"],
    # the first write is the budget message, printed while handling the
    # search's BudgetExhausted
    ["search", "--minimal", "--require", "P1,P2,P3,P4,INV", "--forbid", "NORM",
     "--budget", "10"],
], ids=["prob-sweep", "demo", "search-budget"])
def test_closed_stdout_exits_with_its_own_code_and_no_traceback(
        tmp_path, monkeypatch, capsys, argv):
    report = tmp_path / "report.txt"
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(cli.sys, "stdout", _ClosedPipe(fh.fileno()))
        assert main(argv + ["--report", str(report)]) == cli.STDOUT_CLOSED == 141
        # the descriptor now points at devnull, so the flush at exit is silent
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""
    assert not report.exists()


def test_prob_verify_small_sample(capsys):
    assert main(["prob", "verify"]) == 0
    assert capsys.readouterr().out == (
        "P1 holds (exhaustive, 2048 instances)\n"
        "P2 holds (exhaustive, 4194304 instances)\n"
        "P3 holds (exhaustive, 4194304 instances)\n"
        "P4 holds (exhaustive, 8589934592 instances)\n"
        "P5 holds (exhaustive, 8589934592 instances)\n"
        "MP holds (exhaustive, 4194304 instances)\n"
        "NORM fails at ({11111111110},{1111111110},{11111111100}) world 0 (pinned)\n"
        "table cross-checked against exact rationals on 517 cells\n"
    )


def test_prob_sweep_runs_on_a_small_space(capsys):
    assert main(["prob", "sweep", "--worlds", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["threshold", "P1", "P2", "P3", "P4", "P5", "MP", "NORM"]
    # thresholds k/20 on the 4-world space, self mass at its default
    assert lines[1:] == [
        "1/20       FAIL  ok    ok    ok    FAIL  FAIL  FAIL",
        "1/10       FAIL  ok    ok    ok    FAIL  FAIL  FAIL",
        "3/20       ok    ok    ok    ok    ok    ok    FAIL",
        "1/5        ok    ok    ok    ok    ok    ok    FAIL",
        "1/4        ok    ok    ok    ok    ok    ok    FAIL",
        "3/10       ok    ok    ok    ok    ok    ok    FAIL",
        "7/20       ok    ok    ok    ok    ok    ok    FAIL",
        "2/5        ok    ok    ok    ok    ok    ok    FAIL",
        "9/20       ok    ok    ok    ok    ok    ok    FAIL",
        "1/2        ok    ok    ok    ok    ok    ok    FAIL",
        "11/20      ok    ok    ok    ok    ok    ok    FAIL",
        "3/5        ok    ok    ok    ok    ok    ok    FAIL",
        "13/20      ok    ok    ok    ok    ok    ok    FAIL",
        "7/10       ok    ok    ok    ok    ok    ok    ok  ",
        "3/4        ok    ok    ok    ok    ok    ok    ok  ",
        "4/5        ok    ok    ok    ok    ok    ok    ok  ",
        "17/20      ok    ok    ok    ok    ok    ok    ok  ",
        "9/10       ok    ok    ok    ok    ok    ok    ok  ",
        "19/20      ok    FAIL  ok    ok    ok    ok    FAIL",
        "1          ok    FAIL  ok    ok    ok    ok    ok  ",
    ]


def test_prob_sweep_at_its_default_eleven_worlds(capsys):
    assert main(["prob", "sweep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["threshold", "P1", "P2", "P3", "P4", "P5", "MP", "NORM"]
    # the docstring's claims on the reference space: NORM fails at every
    # threshold below 1, P2 once the threshold passes the self mass 9/10,
    # and P1, P5 and MP at the lowest thresholds
    assert lines[1:] == [
        "1/20       FAIL  ok    ok    ok    FAIL  FAIL  FAIL",
        "1/10       FAIL  ok    ok    ok    FAIL  FAIL  FAIL",
        "3/20       ok    ok    ok    ok    ok    ok    FAIL",
        "1/5        ok    ok    ok    ok    ok    ok    FAIL",
        "1/4        ok    ok    ok    ok    ok    ok    FAIL",
        "3/10       ok    ok    ok    ok    ok    ok    FAIL",
        "7/20       ok    ok    ok    ok    ok    ok    FAIL",
        "2/5        ok    ok    ok    ok    ok    ok    FAIL",
        "9/20       ok    ok    ok    ok    ok    ok    FAIL",
        "1/2        ok    ok    ok    ok    ok    ok    FAIL",
        "11/20      ok    ok    ok    ok    ok    ok    FAIL",
        "3/5        ok    ok    ok    ok    ok    ok    FAIL",
        "13/20      ok    ok    ok    ok    ok    ok    FAIL",
        "7/10       ok    ok    ok    ok    ok    ok    FAIL",
        "3/4        ok    ok    ok    ok    ok    ok    FAIL",
        "4/5        ok    ok    ok    ok    ok    ok    FAIL",
        "17/20      ok    ok    ok    ok    ok    ok    FAIL",
        "9/10       ok    ok    ok    ok    ok    ok    FAIL",
        "19/20      ok    FAIL  ok    ok    ok    ok    FAIL",
        "1          ok    FAIL  ok    ok    ok    ok    ok  ",
    ]


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


def test_dot_escapes_the_document_name_and_element_names(tmp_path):
    path = tmp_path / "q.lat"
    path.write_text('lattice x"y\nelements 0 a"b 1\ncover 0 a"b\ncover a"b 1\n'
                    'op -> 1 1 1 ; 0 1 1 ; 0 a"b 1\n')
    dot = tmp_path / "q.dot"
    assert main(["classify", str(path), "--dot", str(dot)]) == 0
    lines = dot.read_text().splitlines()
    assert lines[0] == r'digraph "x\"y" {' and r'  n1 [label="a\"b"];' in lines


@pytest.mark.parametrize("argv", [
    ["selection", "fixtures/density-gap-3.self"],
    ["search", "--minimal", "--require", "P1"],
    ["prob", "verify"],
    pytest.param(["prob", "sweep"], id="prob-sweep"),
    ["demo"],
], ids=lambda argv: argv[0])
def test_dot_is_refused_where_nothing_is_drawn(tmp_path, capsys, argv):
    dot = tmp_path / "x.dot"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--dot", str(dot)])
    assert info.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err
    assert not dot.exists()


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


# the anchors of `condlat demo`, in replay order
DEMO_ANCHORS = """
    profile:const-top-2chain label:const-top-2chain
    profile:const-bottom-2chain label:const-bottom-2chain
    profile:consequent-projection-2chain label:consequent-projection-2chain
    profile:antitone-step-3chain label:antitone-step-3chain
    profile:collapse-step-3chain label:collapse-step-3chain
    profile:tail-constant-4chain label:tail-constant-4chain
    profile:meet-2chain label:meet-2chain
    profile:identity-or-consequent-3chain label:identity-or-consequent-3chain
    profile:residual-3chain label:residual-3chain profile:material-2chain
    label:material-2chain profile:material-B4 label:material-B4
    profile:material-B8 label:material-B8 profile:sasaki-M4 label:sasaki-M4
    orthomodular:sasaki-M4 profile:sasaki-benzene label:sasaki-benzene
    orthomodular:sasaki-benzene profile:sasaki-twin-peaks
    label:sasaki-twin-peaks orthomodular:sasaki-twin-peaks
    profile:gate-to-bottom-6 label:gate-to-bottom-6 profile:meet-M3
    label:meet-M3 profile:meet-N5 label:meet-N5 profile:well-order-B4
    label:well-order-B4 profile:well-order-B8 label:well-order-B8
    pinned:antichain-negation-import pinned:twin-peaks-normality
    pinned:gate-normality-witness pinned:tail-constant-mp-witness
    derived-neg:tail-constant-4chain derived-neg:meet-2chain
    derived-neg:residual-3chain derived-neg:material-2chain
    derived-neg:material-B4 derived-neg:material-B8 derived-neg:sasaki-M4
    derived-neg:sasaki-benzene derived-neg:sasaki-twin-peaks
    derived-neg:gate-to-bottom-6 derived-neg:meet-M3 derived-neg:meet-N5
    derived-neg:well-order-B4 derived-neg:well-order-B8
    heyting:three-descriptions-3chain frame:quad-fixpoints
    frame:quad-49-entries pair:tail-constant-4chain space:tail-constant-4chain
    space-conditions:tail-constant-4chain pair:meet-2chain space:meet-2chain
    space-conditions:meet-2chain pair:residual-3chain space:residual-3chain
    space-conditions:residual-3chain pair:material-2chain
    space:material-2chain space-conditions:material-2chain pair:material-B4
    space:material-B4 space-conditions:material-B4 pair:material-B8
    space:material-B8 space-conditions:material-B8 pair:sasaki-M4
    space:sasaki-M4 space-conditions:sasaki-M4 pair:sasaki-benzene
    space:sasaki-benzene space-conditions:sasaki-benzene
    pair:sasaki-twin-peaks space:sasaki-twin-peaks
    space-conditions:sasaki-twin-peaks pair:gate-to-bottom-6
    space:gate-to-bottom-6 space-conditions:gate-to-bottom-6 pair:meet-M3
    space:meet-M3 space-conditions:meet-M3 pair:meet-N5 space:meet-N5
    space-conditions:meet-N5 pair:well-order-B4 space:well-order-B4
    space-conditions:well-order-B4 pair:well-order-B8 space:well-order-B8
    space-conditions:well-order-B8 selection:well-order-3
    selection:density-gap-3 selection:select-all-3 selection:density-gap-p5
    selection:roundtrip-B4 selection:roundtrip-B8 selection:select-all-gate
    prob:boundary-arithmetic prob:core-and-detachment prob:normality-witness
    search:forbid-P1 search:forbid-P2 search:forbid-P3 search:forbid-P4
    search:forbid-P5 search:only-const-top search:only-meet
    search:2chain-vs-bruteforce frames:closure-laws-1000
    frames:induced-preconditional-1000
""".split()


def _refuse(*args, **kwargs):
    raise AssertionError("a check ran")


def test_demo_anchors_are_listed_without_running_a_check(monkeypatch):
    for name in ("check_axioms", "check_axiom", "classify", "fixpoints",
                 "build_pair_frame", "build_fi_space", "check_frame",
                 "induced_conditional", "confidence_space", "verify_axioms",
                 "minimal_witness", "find_witness", "random_frame"):
        monkeypatch.setattr(cli, name, _refuse)
    pairs = list(cli._demo_checks(0))
    assert [anchor for anchor, _ in pairs] == DEMO_ANCHORS
    assert len(DEMO_ANCHORS) == len(set(DEMO_ANCHORS)) == 126
    assert all(callable(check) for _, check in pairs)


@pytest.mark.parametrize("pattern", ["pinned:", "prob:boundary"])
def test_demo_filter_runs_only_the_matching_checks(monkeypatch, capsys, pattern):
    for name in ("minimal_witness", "find_witness", "verify_axioms", "random_frame"):
        monkeypatch.setattr(cli, name, _refuse)
    assert main(["demo", "--filter", pattern]) == 0
    lines = capsys.readouterr().out.splitlines()
    shown = [a for a in DEMO_ANCHORS if pattern in a]
    assert [line.split()[1] for line in lines[:-1]] == shown
    assert lines[-1] == f"{len(shown)} checks, 0 failures"


def test_demo_filtered_report_holds_exactly_the_checks_shown(tmp_path, capsys):
    report = tmp_path / "demo.txt"
    assert main(["demo", "--filter", "meet-2chain", "--report", str(report)]) == 0
    shown = capsys.readouterr().out.splitlines()[:-1]
    records = report.read_text().splitlines()
    assert len(shown) == len(records) == 6
    for line, record in zip(shown, records):
        assert record.split()[:2] == ["ok=true", "anchor=" + line.split()[1]]


def test_demo_failure_stays_at_its_anchor(monkeypatch, tmp_path, capsys):
    victim = catalog.entry("meet-2chain").conditional
    verify = cli.verify_pair_embedding

    def planted(pf):
        if pf.op is victim:
            raise EmbeddingNotVerified("planted failure")
        return verify(pf)

    monkeypatch.setattr(cli, "verify_pair_embedding", planted)
    report = tmp_path / "demo.txt"
    assert main(["demo", "--filter", "2chain", "--report", str(report)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(lines) - 1} checks, 1 failures"
    at = lines.index("FAIL pair:meet-2chain (planted failure)")
    # the entry's own space checks and every check after them still run
    assert lines[at + 1:at + 3] == ["PASS space:meet-2chain (2-open-fixpoints)",
                                    "PASS space-conditions:meet-2chain"]
    assert lines[-2] == "PASS search:2chain-vs-bruteforce (2187-specs)"
    text = report.read_text()
    assert "section:" not in text and len(text.splitlines()) == len(lines) - 1
    assert ("ok=false anchor=pair:meet-2chain detail=planted-failure\n") in text


@pytest.mark.parametrize("argv", [
    ["check", "antitone-step-3chain.lat"],
    ["check", "antitone-step-3chain.lat", "--axioms", "P1,P2,P3,P5"],
    ["classify", "sasaki-M4.lat"],
    ["frame", "quad-two-way.frame"],
    ["represent", "residual-3chain.lat"],
    ["represent", "const-top-2chain.lat"],
    ["selection", "density-gap-3.self"],
    ["search", "--lattice", "meet-2chain.lat", "--require", "MP", "--forbid", "WM"],
    ["search", "--lattice", "meet-2chain.lat", "--require", "MP,WM", "--forbid", "P1"],
    ["search", "--minimal", "--require", "P1,P2,P3,P5", "--forbid", "P4"],
    ["search", "--lattice", "material-B4.lat", "--require", "P1", "--forbid", "P4",
     "--budget", "1"],
    ["search", "--minimal", "--require", "P1", "--forbid", "P4", "--budget", "1"],
    ["prob", "verify"],
    ["prob", "arrow", "1,2,3", "2,3"],
    ["prob", "sweep", "--worlds", "3"],
    ["demo", "--filter", "pinned:"],
    ["demo", "--filter", "density-gap"],
], ids=" ".join)
def test_every_command_writes_its_report_and_exits_by_it(tmp_path, capsys, argv):
    argv = [str(FIXTURES / a) if a.endswith((".lat", ".frame", ".self")) else a
            for a in argv]
    report = tmp_path / "report.txt"
    code = main(argv + ["--report", str(report)])
    records = report.read_text().splitlines()
    assert records and all(r.startswith(("ok=true ", "ok=false ")) for r in records)
    # every record is key=value tokens, ok= first: no value holds whitespace
    for r in records:
        tokens = [t.split("=", 1) for t in r.split(" ")]
        assert tokens[0][0] == "ok" and all(len(t) == 2 and t[0] and t[1] for t in tokens), r
    assert code == (1 if any(r.startswith("ok=false") for r in records) else 0)


def test_budget_exhausted_search_records_one_failure(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(["search", "--lattice", str(FIXTURES / "material-B4.lat"),
                 "--require", "P1", "--forbid", "P4", "--budget", "1",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().out == "budget exhausted: node budget 1 exhausted\n"
    assert report.read_text() == "ok=false check=search detail=budget-exhausted\n"


def test_demo_stdout_is_pinned(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("126 checks, 0 failures\n")
    assert hashlib.md5(out.encode()).hexdigest() == "c5007766be65bb884fe394862b5a7ede"


def test_represent_stdout_is_pinned(capsys):
    # every .lat fixture, in sorted order: its file name, exit code and stdout
    digest = hashlib.md5()
    for p in sorted(FIXTURES.glob("*.lat")):
        code = main(["represent", str(p)])
        digest.update(f"{p.name} {code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "2ff5be84fcec67f17438346572e35b50"
