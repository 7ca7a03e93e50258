"""Measure the benchmark on the current checkout and record it in
perfbench/baseline.json.

    python3 perfbench/baseline.py [--workloads W ...] [--sets 2] [--runs 10]

For each workload (by default those of BENCHMARK.json) it makes --sets sets
of --runs untraced runs of run_seconds each, every run with its own seed,
and then one traced run.  Set k of every workload runs before set k + 1 of
any, so that the sets lie apart in time.  For every end-to-end metric, and
every metric of run.WORKLOAD_METRICS that the workload defines, each set
gives the median, the quartiles and the spread, (q3 - q1) / median, as
statistics.quantiles(values, n=4) computes them.  The traced run gives the
per-layer metrics.  Entries of workloads not measured this time are kept
from the existing file.  Stops at the first run that fails or exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import lib
import run

BASELINE = Path(__file__).resolve().parent / "baseline.json"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=lib.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"baseline: {' '.join(cmd[1:])} exited with {proc.returncode}")
    path = lib.OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def measure_set(workload: str, seeds: range, seconds: int) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds:
        record = one_run(workload, seed, seconds, 0)
        for name, metric in {**record["metrics"], **record["workload_metrics"]}.items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: summary(v, units[name]) for name, v in values.items()}


def commit() -> str | None:
    proc = subprocess.run(["git", "-C", str(lib.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    spec = json.loads((lib.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=list(run.WORKLOADS),
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    old = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    baseline = {"about": (
        "Baseline of the benchmark at the commit below.  end_to_end: for each workload, one "
        "entry per set of untraced runs, each run with its own seed, giving per metric the "
        "median, quartiles, spread ((q3 - q1) / median) and the values.  per_layer: the "
        "metrics of one traced run.  The units, directions and workloads of the metrics that "
        "only some workloads define are in run.WORKLOAD_METRICS.  Written by "
        "perfbench/baseline.py."),
        "environment": {**run.environment(), "commit": commit()},
        "end_to_end": old.get("end_to_end", {}),
        "per_layer": old.get("per_layer", {}),
    }
    sets: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for k in range(args.sets):  # whole sets one after another, to space them in time
        for workload in args.workloads:
            seeds = range(100 * k + 1, 100 * k + 1 + args.runs)
            sets[workload].append(measure_set(workload, seeds, seconds))
            baseline["end_to_end"][workload] = {"seconds": seconds, "sets": sets[workload]}
            BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    for workload in args.workloads:
        traced = one_run(workload, 100 * args.sets + 1, seconds, 1)
        baseline["per_layer"][workload] = {"seconds": seconds, "metrics": {
            name: m["value"] for name, m in traced["metrics"].items()}}
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    for workload, entries in sets.items():
        for k, entry in enumerate(entries):
            print(workload, f"set {k + 1}:", ", ".join(
                f"{name} {m['median']:.4g} (spread {m['spread']:.3f})" for name, m in entry.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
