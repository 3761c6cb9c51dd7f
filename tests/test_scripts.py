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

