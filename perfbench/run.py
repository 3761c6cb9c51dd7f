"""condlat benchmark: one verdict at a time through the package's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --self-test             # a wrong expectation must be caught

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src`` directory, so nothing needs to be built.  Each
workload runs in fresh worker processes (see worker.py).  Untraced runs
report the end-to-end metrics of BENCHMARK.json, traced runs the
per-layer metrics.  Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when a result was printed, 2 when the checkout has no
condlat sources, 3 when a worker failed or a traced run's exact counts
did not repeat (the run is invalid and no result is printed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frame-algebras", "table-census", "search-profiles", "confidence-space")
DEFAULT_SEED = 1
SETUP_RUNS = 5              # set-up is measured in this many fresh processes
RUN_DEADLINE_S = 175


class BenchmarkError(Exception):
    pass


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(workload, seed, seconds, trace=0, extra=(), timeout=RUN_DEADLINE_S):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} worker did not finish within {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, deadline):
    """Run one workload; returns (result dict, metrics dict)."""
    if trace:
        res = worker(workload, seed, seconds, 1, timeout=deadline - time.monotonic())
        if res["invalid"]:
            raise BenchmarkError(f"invalid run: {res['invalid']}")
        return res, res["layers"]
    # each set-up is scaled by the mean of the reference set-ups on either side
    refs = [calibration.reference_setup()]
    setups = []
    for _ in range(SETUP_RUNS):
        raw = worker(workload, seed, 0, extra=["--setup-only"], timeout=60)["setup_raw_s"]
        refs.append(calibration.reference_setup())
        setups.append(raw * calibration.REFERENCE_SETUP_S * 2 / (refs[-2] + refs[-1]))
    res = worker(workload, seed, seconds, timeout=deadline - time.monotonic())
    return res, {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": res["per_round"] * res["rounds"] / res["busy_s"],
        "verdict_p50_ms": res["p50_ms"],
        "verdict_tail_ms": res["tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report(workload, res, metrics, wanted):
    """Print every wanted metric as `name value unit`; returns the JSON form."""
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchmarkError(f"{workload}: no value for metric {m['name']}")
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload} {m['name']} {value:.6g} {m['unit']}")
    print(f"{workload} failed_share {res['failed'] / res['verdicts']:.6g} ratio "
          f"({res['failed']} of {res['verdicts']} verdicts)")
    print(f"{workload} tail is p{res['tail_percentile']:g} of {res['per_round']} inputs, "
          f"each at its fastest of the first {res['tail_rounds']} of {res['rounds']} rounds")
    print(f"{workload} unscaled: {res['per_round'] * res['rounds'] / res['busy_raw_s']:.6g} "
          f"verdicts/s, p50 {res['p50_raw_ms']:.6g} ms, tail {res['tail_raw_ms']:.6g} ms, "
          f"set-up {res['setup_raw_s']:.6g} s; machine speed {res['speed']:.3g} of reference")
    print(f"{workload} environment {json.dumps(res['environment'], sort_keys=True)}")
    for kind, vid, why in res["failures"]:
        print(f"{workload} FAILED verdict {vid} ({kind}): {why}", file=sys.stderr)
    return out


def self_test(seed):
    """A deliberately wrong expected answer must show up as a failure, and
    the same round without it must pass."""
    clean = worker("confidence-space", seed, 0)
    broken = worker("confidence-space", seed, 0, extra=["--corrupt"])
    print(f"self-test: clean failed_share {clean['failed'] / clean['verdicts']:.4g}, "
          f"corrupted failed_share {broken['failed'] / broken['verdicts']:.4g}")
    ok = clean["failed"] == 0 and broken["failed"] > 0
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "condlat" / "__init__.py").is_file():
        print(f"no condlat sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(args.seed)
        wanted = spec()["per_layer" if args.trace else "end_to_end"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
        results = {}
        for name in names:
            res, metrics = measure(name, args.seed, args.seconds, args.trace, deadline)
            results[name] = (res, report(name, res, metrics, wanted))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    attempted = sum(res["verdicts"] for res, _ in results.values())
    failed = sum(res["failed"] for res, _ in results.values())
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if len(names) == 1:
        summary["metrics"] = results[names[0]][1]
    else:
        summary["metrics"] = {f"{w}/{k}": v for w, (_, ms) in results.items() for k, v in ms.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
