import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_export_fixtures_reproduces_the_fixture_directory(tmp_path):
    done = run_script("export_fixtures.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    fixtures = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert len(fixtures) == 24
    assert sorted(p.name for p in tmp_path.iterdir()) == fixtures
    for name in fixtures:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name


def test_threshold_sweep_runs_on_a_small_space():
    done = run_script("threshold_sweep.py", "--worlds", "4")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
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


def test_threshold_sweep_at_its_default_eleven_worlds():
    done = run_script("threshold_sweep.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
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
