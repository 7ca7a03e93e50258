#!/usr/bin/env python3
"""The cyclic garbage collector's work during extend-z3 benchmark passes.

    python scripts/gc_probe.py [--passes 5] [--checkout DIR]

Runs one untimed pass of perfbench's extend-z3 workload (thousands of census
misses, then their replay from the ledger), then --passes passes, each
after a gc.collect() as perfbench/run.py starts them, and records every
collection of the cyclic collector through a gc.callbacks probe: how many
ran in each generation, how many objects they freed and how long they took.
The passes run the library and the benchmark code of --checkout (default:
the checkout holding this script), so two checkouts can be compared with the
same probe.  Ledger directories go to a temporary directory, removed at the
end.

The last line of standard output is one JSON object: passes and, per pass,
the medians of collections (by generation), collected (objects freed) and
gc_ms (milliseconds spent collecting).
"""

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path


class GcProbe:
    """Counts the collections, freed objects and time of the cyclic collector
    while installed in gc.callbacks."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.collected = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1
            self.collected += info["collected"]

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be positive")

    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import lib
    from workloads import ExtendZ3

    mods = lib.load()
    with tempfile.TemporaryDirectory() as scratch:
        workload = ExtendZ3(mods, 0, Path(scratch))
        workload.run_pass()  # caches filled, lazy set-up done
        probes = []
        for _ in range(args.passes):
            gc.collect()
            with GcProbe() as probe:
                result = workload.run_pass()
            if result.checks.failed:
                sys.exit(f"gc_probe: {result.checks.failed} failed checks")
            probes.append(probe)
    by_pass = {
        "collections": [
            statistics.median(p.collections[g] for p in probes) for g in range(3)
        ],
        "collected": statistics.median(p.collected for p in probes),
        "gc_ms": round(statistics.median(p.seconds for p in probes) * 1000, 2),
    }
    for name, value in by_pass.items():
        print(f"{name:12} {value}")
    print(json.dumps({"passes": args.passes, "per_pass": by_pass}))


if __name__ == "__main__":
    main()
