"""Benchmark of the subring-census engine, driven through its public calls.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is census-z4, extend-z3, constants-small, constants, or all (each workload
in turn, each in a fresh interpreter).  BENCHMARK.json lists the workloads
whose figures are steady from run to run; one pass of constants, every quoted
constant, takes longer than a run.

One caller runs passes of the workload back to back (a closed loop, one
process, one thread) and starts another pass only while it still fits in S
seconds; the first pass always runs.  Every pass checks its outputs; any
failed check makes the run exit 1 and report no timings.

With --trace 0 the run prints, by name and unit:
  wall_s        median pass time, with the number of passes
  setup_s       median over fresh interpreters of the time from spawn to
                library ready (imports, the workload's catalog entries and
                a temporary directory)
  peak_rss_mib  peak resident set of the run
and, where the workload defines them, the metrics of WORKLOAD_METRICS:
matrices_per_s (matrices classified per second of wall_s), replay_s (the
warm replay phase of extend-z3), enclosure_over_tol_max (largest enclosure
bound over its tolerance limit on the constants workloads) and failed_ratio
(failed over attempted checks).  These times are in reference seconds (see
speed.py): wall-clock time scaled by the processor speed sampled while it
passed, so that they repeat on a machine whose speed drifts.  The notes give
the wall-clock medians too.

With --trace 1 the run alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (medians over traced passes), with the
tracing overhead: traced minus untraced pass time.  Times there are
wall-clock seconds.  Spans are written to
perfbench/out/trace-<workload>.jsonl.gz.  Every run writes its metrics, seed
and environment to perfbench/out/result-<workload>-seed<N>-trace<T>.json.

extend-z3 keeps the ledger directory of each of its passes under
perfbench/out/scratch (about 10 MB of small files a pass) until the next
extend-z3 run removes them before it times anything.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import lib
import speed
import tracing
from workloads import WORKLOADS, ExtendZ3

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11

# End-to-end metrics that only some workloads define, printed and stored with
# every run but not in BENCHMARK.json: name -> (unit, better, workloads).
WORKLOAD_METRICS = {
    "matrices_per_s": ("1/s", "higher", ("census-z4", "extend-z3")),
    "replay_s": ("s", "lower", ("extend-z3",)),
    "enclosure_over_tol_max": ("ratio", "lower", ("constants-small", "constants")),
    "failed_ratio": ("ratio", "lower", ("census-z4", "extend-z3", "constants-small", "constants")),
}


def units(kind: str) -> dict[str, str]:
    """Metric units by name from BENCHMARK.json, kind end_to_end or per_layer."""
    spec = json.loads((lib.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def make_workload(name: str, mods, seed: int, scratch: Path):
    if name == ExtendZ3.name:
        return ExtendZ3(mods, seed, scratch)
    return WORKLOADS[name](mods, seed)


def setup_seconds(name: str, scratch: Path) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to the library being
    ready, in reference seconds and in wall-clock seconds."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name, str(scratch)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split(maxsplit=1)
            raw.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line[:1] != ["ready"] or proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe for {name} failed")
        # the probe samples its own speed while it sets up
        scaled.append(speed.scale(raw[-1], json.loads(line[1])))
    return statistics.median(scaled), statistics.median(raw)


def fresh_pass(workload, tracer=tracing.NullTracer()):
    """One pass, started with no garbage left over from the previous one."""
    gc.collect()
    return workload.run_pass(tracer)


def untraced_passes(workload, seconds: float, sampler: speed.Sampler) -> list:
    """Passes while a further one fits, each with its time in reference seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        result = fresh_pass(workload)
        result.reference_s = sampler.scaled(result.start, result.start + result.seconds)
        passes.append(result)
        if time.perf_counter() - start + result.seconds > seconds:
            return passes


def traced_passes(workload, mods, seconds: float):
    """Alternate untraced and traced passes while a further pair fits."""
    plain, traced, tracers = [], [], []
    run_id = uuid.uuid4().hex[:12]
    start = time.perf_counter()
    while True:
        plain.append(fresh_pass(workload))
        tracer = tracing.Tracer(f"{run_id}-{len(tracers)}")
        with tracer.installed(mods):
            traced.append(fresh_pass(workload, tracer))
        tracers.append(tracer)
        if time.perf_counter() - start + plain[-1].seconds + traced[-1].seconds > seconds:
            return plain, traced, tracers


def diag_max_share(mods, cell) -> float:
    """The slowest diagonal's share of the enumeration time of one cell."""
    if cell is None:
        return 0.0
    n, p, e = cell
    times = []
    for comp in mods.combinatorics.compositions(e, n - 1):
        t0 = time.perf_counter()
        mods.enumeration.enumerate_subrings(mods.enumeration.EnumSpec(n=n, p=p, e=e, diagonal=comp))
        times.append(time.perf_counter() - t0)
    return max(times) / sum(times)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def layer_results(workload, mods, seconds: float):
    """Per-layer metrics (medians over traced passes) and the tracing overhead."""
    plain, traced, tracers = traced_passes(workload, mods, seconds)
    extra = {"diag_max_share": diag_max_share(mods, workload.deep_cell)}
    per_pass = [tracing.layer_metrics(t, r.seconds, {**r.extra, **extra})
                for t, r in zip(tracers, traced)]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced = statistics.median(r.seconds for r in plain)
    # each traced pass against the untraced pass just before it
    overhead = statistics.median(t.seconds - u.seconds for u, t in zip(plain, traced))
    metrics.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": statistics.median(r.seconds for r in traced),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced,
    })
    tracing.write_spans(lib.OUT / f"trace-{workload.name}.jsonl.gz", tracers)
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes, alternating"]
    missing = sorted({site for t in tracers for site in t.missing})
    if missing:
        notes.append(f"call sites absent, not traced: {', '.join(missing)}")
    return plain + traced, metrics, units("per_layer"), {}, notes


def end_to_end_results(workload, seconds: float, scratch: Path):
    """End-to-end metrics, plus those only some workloads define."""
    setup_s, setup_wall_s = setup_seconds(workload.name, scratch)
    with speed.Sampler() as sampler:
        passes = untraced_passes(workload, seconds, sampler)
    wall = statistics.median(r.reference_s for r in passes)
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    own = {}
    if passes[0].matrices:
        own["matrices_per_s"] = passes[0].matrices / wall
    if "replay" in passes[0].extra:
        own["replay_s"] = statistics.median(sampler.scaled(*r.extra["replay"]) for r in passes)
    if "enclosure_over_tol_max" in passes[0].extra:
        own["enclosure_over_tol_max"] = statistics.median(
            r.extra["enclosure_over_tol_max"] for r in passes)
    times = sorted(r.reference_s for r in passes)
    notes = [
        f"wall_s is the median of {len(passes)} passes (min {times[0]:.4f} s, max "
        f"{times[-1]:.4f} s); wall-clock median {statistics.median(r.seconds for r in passes):.4f} s",
        f"setup_s is the median of {SETUP_PROBES} fresh interpreters; wall-clock median "
        f"{setup_wall_s:.4f} s",
    ]
    return passes, metrics, units("end_to_end"), own, notes


def run_one(args) -> int:
    mods = lib.load()
    scratch = lib.OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, mods, args.seed, scratch)
    if args.trace:
        passes, metrics, unit_of, own, notes = layer_results(workload, mods, args.seconds)
    else:
        passes, metrics, unit_of, own, notes = end_to_end_results(workload, args.seconds, scratch)

    attempted = sum(r.checks.attempted for r in passes)
    failed = sum(r.checks.failed for r in passes)
    failures = [f for r in passes for f in r.checks.failures]
    own["failed_ratio"] = failed / attempted
    ok = not failures
    if not ok:
        metrics = {}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in notes + [f"FAIL {f}" for f in failures[:20]]:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of[name]}")
    for name, value in own.items():
        print(f"{name} {value:.6g} {WORKLOAD_METRICS[name][0]}")
    print(f"checks: {attempted} attempted, {failed} failed")

    metrics = {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "pass_seconds": [r.seconds for r in passes],
        "pass_reference_seconds": [r.reference_s for r in passes],
        "attempted": attempted, "failed": failed, "failures": failures, "metrics": metrics,
        "workload_metrics": {k: {"value": v, "unit": WORKLOAD_METRICS[k][0]}
                             for k, v in own.items()},
    }
    result_path = lib.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
