"""The benchmark's calls into condlat, one verdict of each kind.

Imports ``perfbench/workloads.py`` and runs, for seed 1, one verdict of
every kind of every workload through a ``call`` that applies the
benchmark's meters, so an API break shows here before the benchmark
runs: a renamed or removed function, argument or report field.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_one_verdict_of_each_kind_gives_the_expected_answer(workloads):
    counts = Counter()

    def call(name, fn, *args):
        result = fn(*args)
        meter = workloads.METERS.get(fn)
        if meter is not None:
            meter(args, result, counts)
        return result

    for name, build in workloads.BUILDERS.items():
        first = {}
        for v in build(1, call, ROOT).verdicts:
            first.setdefault(v.kind, v)
        for kind, v in first.items():
            assert v.answer(v.run(call)) == v.expected, (name, kind)
    # the meters ran on what the calls returned
    assert counts["ops.check_calls"] and counts["frames.fixpoints_calls"]
    assert counts["io.documents"] and counts["search.specs"]
    assert counts["probabilistic.instances"] and counts["representation.opens"]
