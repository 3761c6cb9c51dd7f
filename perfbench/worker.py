"""One benchmark process: set up a workload, then time its verdicts.

Started by run.py, which passes the monotonic time at which it spawned
this process, so that set-up time covers interpreter start, the import
of condlat (which builds the catalog), input generation, the oracle and
the warm-up.  The load is one thread in a closed loop: the next verdict
starts when the last one has returned.  Whole rounds over the workload's
verdicts run until ``--seconds`` have passed at the reference speed of
calibration.py, and at least the workload's ``tail_rounds``.

With ``--trace 1`` untraced and traced rounds alternate; spans and exact
counts come from the traced rounds, and the difference in verdict time
between the two is the tracing overhead.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402  (needs the package on the path)
from tracing import Tracer, plain  # noqa: E402

LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_ABOVE = 10
EXACT = ("ops.instances", "frames.closures", "search.nodes", "probabilistic.instances")
SHOWN_FAILURES = 5


def tail_percentile(per_round: int) -> float:
    """Highest ladder percentile with at least TAIL_ABOVE verdicts of one
    round above it.  Fixed by the round size, so every run of a workload
    reports the same percentile however many rounds it makes."""
    ok = [p for p in LADDER if per_round - ceil(p * per_round / 100) >= TAIL_ABOVE]
    if not ok:
        raise ValueError(f"{per_round} verdicts per round leave no tail percentile")
    return max(ok)


def percentile(ordered, p):
    return ordered[ceil(p * len(ordered) / 100) - 1]


def median_band(ordered):
    """The median, estimated as the mean of the values between the 45th
    and 55th percentiles: verdict times are lumpy (one cluster per input
    size), and a plain median jumps between clusters on small noise."""
    n = len(ordered)
    band = ordered[n * 45 // 100:max(n * 55 // 100, n * 45 // 100 + 1)]
    return sum(band) / len(band)


def tail(rounds, p):
    """Percentile p over the inputs, each at its time in the fastest of the
    given rounds (rounds hold (seconds, scaled) pairs; the unscaled time
    picks the round).  A pause the host inflicts on one verdict (a
    preempted virtual CPU) seldom hits the same input in every round, so
    it drops out; the cost of an expensive input does not.  The caller
    passes the same number of rounds in every run, so a faster program
    does not get a lower tail from making more rounds."""
    return percentile(sorted(min(ts)[1] for ts in zip(*rounds)), p)


def run_round(verdicts, failures, tracer=None):
    """Run every verdict once; returns the (start, end) of each."""
    spans = []
    for vid, v in enumerate(verdicts):
        t0 = perf_counter()
        try:
            raw = tracer.verdict_span(vid, v.kind, v.run) if tracer else v.run(plain)
        except Exception as exc:  # a raised error is a failed verdict; keep going
            spans.append((t0, perf_counter()))
            failures.append((v.kind, vid, f"raised {type(exc).__name__}: {exc}"))
            continue
        spans.append((t0, perf_counter()))
        try:
            got = v.answer(raw)
        except Exception as exc:
            failures.append((v.kind, vid, f"answer raised {type(exc).__name__}: {exc}"))
            continue
        if got != v.expected:
            failures.append((v.kind, vid, f"got {got!r:.300} expected {v.expected!r:.300}"))
    return spans


@contextmanager
def counting_closures(counts):
    """Count RelationalFrame.closure calls, from every caller, while active."""
    from condlat.frames import RelationalFrame

    original = RelationalFrame.closure

    def closure(self, A):
        counts["frames.closures"] += 1
        return original(self, A)

    RelationalFrame.closure = closure
    try:
        yield
    finally:
        RelationalFrame.closure = original


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def layer_metrics(self_time, counts, setup_self, setup_counts):
    """Per-layer metrics for one traced round (times are span self times)."""
    def t(*names):
        return sum(self_time.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    check_s = t("ops.unary", "ops.binary", "ops.ternary")
    search_s = t("search.find", "search.minimal")
    c = counts
    return {
        "ops.ternary_s": t("ops.ternary"),
        "ops.binary_s": t("ops.binary"),
        "ops.unary_s": t("ops.unary"),
        "ops.classify_s": t("ops.classify"),
        "ops.residuation_s": t("ops.residuation"),
        "ops.check_calls": c["ops.check_calls"],
        "ops.instances": c["ops.instances"],
        "ops.instances_per_s": ratio(c["ops.instances"], check_s),
        "ops.sampled_share": ratio(c["ops.sampled_instances"], c["ops.instances"]),
        "frames.fixpoints_s": t("frames.fixpoints"),
        "frames.closure_s": t("frames.closure"),
        "frames.fixpoints_calls": c["frames.fixpoints_calls"],
        "frames.closures": c["frames.closures"],
        "frames.lattice_n_max": c["frames.lattice_n_max"],
        "selection.induced_s": t("selection.induced"),
        "selection.roundtrip_s": t("selection.roundtrip"),
        "selection.check_frame_s": t("selection.check_frame"),
        "representation.pair_s": t("representation.pair"),
        "representation.fi_s": t("representation.fi"),
        "representation.conditions_s": t("representation.conditions"),
        "representation.fallbacks": c["representation.fallbacks"],
        "representation.opens": c["representation.opens"],
        "io.parse_s": setup_self.get("io.parse", 0.0),
        "io.documents": setup_counts["io.documents"],
        "search.find_s": t("search.find"),
        "search.minimal_s": t("search.minimal"),
        "search.specs": c["search.specs"],
        "search.nodes": c["search.nodes"],
        "search.nodes_per_s": ratio(c["search.nodes"], search_s),
        "search.nodes_per_spec_max": c["search.nodes_per_spec_max"],
        "search.exhausted_specs": c["search.exhausted_specs"],
        "search.witnesses": c["search.witnesses"],
        "probabilistic.table_s": t("probabilistic.table"),
        "probabilistic.verify_s": t("probabilistic.verify"),
        "probabilistic.instances": c["probabilistic.instances"],
        "probabilistic.exhaustive_share": ratio(c["probabilistic.exhaustive_instances"],
                                                c["probabilistic.instances"]),
        "bench.glue_s": sum(v for k, v in self_time.items() if k.startswith("verdict.")),
    }


def code_digest():
    """A digest of the package and benchmark sources: the exact counts are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    sources = [*(ROOT / "src" / "condlat").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_exact_counts(per_round, workload, seed):
    """The exact counts must repeat in every traced round of the run, and
    in every traced run of the same workload, seed and code in this
    checkout."""
    exact = [{k: r.get(k, 0) for k in EXACT} for r in per_round]
    if any(e != exact[0] for e in exact):
        return f"exact counts differ between rounds: {exact}"
    path = OUT / f"counts-{workload}-{seed}-{code_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != exact[0]:
            return f"exact counts {exact[0]} differ from an earlier run's {before}"
    else:
        path.write_text(json.dumps(exact[0], sort_keys=True))
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="give the first verdict a wrong expected answer (self-test)")
    args = ap.parse_args()

    with calibration.Calibrator() as cal:
        tracer = Tracer(workloads.METERS) if args.trace else None
        wl = workloads.BUILDERS[args.workload](args.seed, tracer.call if tracer else plain, ROOT)
        if args.corrupt:
            wl.verdicts[0].expected = "a deliberately wrong answer"
        run_round(wl.warmup, [])
        # the inputs and expected answers live for the whole run: keep the
        # cyclic collector from traversing them, as it would not in a
        # program that holds only the verdict at hand
        gc.freeze()
        setup_end = perf_counter()
        cal.force(calibration.WINDOW)
        # perf_counter and monotonic share a clock on Linux, but do not rely on it
        spawned = args.spawned - (time.monotonic() - perf_counter())
        setup_raw, setup_scaled = cal.measure(spawned, setup_end)
        if args.setup_only:
            print(json.dumps({"setup_raw_s": setup_raw}))
            return 0

        failures = []
        rounds, traced_rounds = [], []
        if tracer:
            setup_self, setup_counts = dict(tracer.self_time), Counter(tracer.counts)
            spans_before = tracer.span_count
            layer_rounds, round_counts = [], []
        # run for --seconds at the reference speed, so that a run makes the
        # same number of rounds however fast the machine is at the moment
        start = perf_counter()
        while (len(rounds) < wl.tail_rounds
               or (perf_counter() - start) * cal.speed() < args.seconds):
            rounds.append(run_round(wl.verdicts, failures))
            if tracer:
                tracer.counts.clear()
                tracer.self_time.clear()
                with counting_closures(tracer.counts):
                    traced_rounds.append(run_round(wl.verdicts, failures, tracer))
                round_counts.append(Counter(tracer.counts))
                layer_rounds.append(dict(tracer.self_time))
        cal.force(calibration.WINDOW)

    def measured(spans):
        """[(seconds, scaled seconds)] of one round's verdicts."""
        return [cal.measure(t0, t1) for t0, t1 in spans]

    rounds = [measured(r) for r in rounds]
    times = sorted(s for r in rounds for _, s in r)
    raw_times = sorted(t for r in rounds for t, _ in r)
    per_round = len(wl.verdicts)
    tail_p = tail_percentile(per_round)
    result = {
        "setup_raw_s": setup_raw,
        "rounds": len(rounds),
        "per_round": per_round,
        "verdicts": len(times) * (2 if tracer else 1),
        "failed": len(failures),
        "busy_s": sum(times),
        "busy_raw_s": sum(raw_times),
        "p50_ms": 1e3 * median_band(times),
        "p50_raw_ms": 1e3 * median_band(raw_times),
        "tail_ms": 1e3 * tail(rounds[:wl.tail_rounds], tail_p),
        "tail_raw_ms": 1e3 * tail([[(t, t) for t, _ in r] for r in rounds[:wl.tail_rounds]],
                                  tail_p),
        "tail_percentile": tail_p,
        "tail_rounds": wl.tail_rounds,
        "speed": cal.speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures[:SHOWN_FAILURES],
        "environment": environment(),
    }
    if tracer:
        # a traced round's span self times take that round's speed scale
        n = len(traced_rounds)
        self_time = Counter()
        for spans, layers in zip(traced_rounds, layer_rounds):
            # span times still hold the kernel samples, like the wall time
            factor = sum(s for _, s in measured(spans)) / sum(t1 - t0 for t0, t1 in spans)
            for name, seconds in layers.items():
                self_time[name] += seconds * factor / n
        setup_self = {k: v * setup_scaled / setup_raw for k, v in setup_self.items()}
        layers = layer_metrics(self_time, round_counts[-1], setup_self, setup_counts)
        untraced = sum(times) / n
        overhead = sum(s for r in traced_rounds for _, s in measured(r)) / n - untraced
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / untraced
        layers["trace.spans"] = (tracer.span_count - spans_before) / n
        OUT.mkdir(exist_ok=True)
        result["layers"] = layers
        result["invalid"] = check_exact_counts(round_counts, args.workload, args.seed)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
