#!/usr/bin/env python3
"""Where the time of a multiplicative extension goes, phase by phase.

    python scripts/extend_cells.py N LIMIT

Runs one cold `multiplicative_extend(N, LIMIT)` on a fresh ledger in a
temporary directory, every prime-power cell up to LIMIT a census miss
appended to the log, and then its compute=False replay from that directory
on a new ledger.  Each phase is timed by wrapping the library attribute
that does it while the two runs go, the way scripts/search_nodes.py wraps
`_entry_values`:

    search   CountLedger._irreducible_cotypes  (the G_m(j) searches)
    build    counting._record_from_cotypes     (record build and key checks)
    append   CountLedger._append               (serialize, checksum and
                                                write: the one writer of
                                                the log, wherever it runs)
    read     CountLedger._read_new             (parse and verify log lines)
    rest     everything else of the two calls  (lookups, block recursion,
                                                the multiplicative tables)

The phases do not call each other, so their times add up.  Times are
wall-clock on this process, the wrappers' small cost included.  The output
is the cell count, then one line per phase with milliseconds in the cold
run, in the replay, and microseconds per cell over both, then the number of
log writes (calls of the writer, one write each) in each run; the last line of standard
output is the same as JSON.
"""

import argparse
import json
import sys
import tempfile
import time

from subring_census import counting
from subring_census.counting import CountLedger, IndexSplit, multiplicative_extend
from subring_census.enumeration import check_cell

PHASES = (
    ("search", CountLedger, "_irreducible_cotypes"),
    ("build", counting, "_record_from_cotypes"),
    ("append", CountLedger, "_append"),
    ("read", CountLedger, "_read_new"),
)


def measure(n: int, limit: int) -> dict:
    """Cell count, and seconds per phase and log writes of one cold extension
    and of its replay."""
    seconds = {name: 0.0 for name, *_ in PHASES}
    calls = dict.fromkeys(seconds, 0)
    originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in PHASES]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - start

        return wrapper

    runs = {}
    try:
        for (name, owner, attr), (_, _, fn) in zip(PHASES, originals):
            setattr(owner, attr, timed(name, fn))
        with tempfile.TemporaryDirectory() as directory:
            for run, compute in (("cold", True), ("replay", False)):
                before, written = dict(seconds), calls["append"]
                start = time.perf_counter()
                multiplicative_extend(
                    n, limit, CountLedger(directory), coranks=tuple(range(1, n)),
                    compute=compute,
                )
                total = time.perf_counter() - start
                phases = {k: seconds[k] - before[k] for k in seconds}
                phases["rest"] = total - sum(phases.values())
                runs[run] = {"phases": phases, "writes": calls["append"] - written}
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return {"cells": len(IndexSplit.of(limit).prime_powers), "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("n", type=int, help="rank of Z^n")
    parser.add_argument("limit", type=int, help="largest index of the tables")
    args = parser.parse_args()
    try:
        check_cell(args.n, 2, 0)
    except ValueError as exc:
        parser.error(str(exc))
    if args.limit < 0:
        parser.error("need LIMIT >= 0")

    result = measure(args.n, args.limit)
    cells, runs = result["cells"], result["runs"]
    phases = []
    print(f"{cells} cells")
    print(f"{'phase':>8}  {'cold ms':>9}  {'replay ms':>9}  {'us/cell':>8}")
    for name in runs["cold"]["phases"]:
        cold, replay = (runs[run]["phases"][name] for run in ("cold", "replay"))
        per_cell = (cold + replay) / cells * 1e6 if cells else float("nan")
        print(f"{name:>8}  {cold * 1e3:>9.2f}  {replay * 1e3:>9.2f}  {per_cell:>8.2f}")
        phases.append(
            {"phase": name, "cold_ms": cold * 1e3, "replay_ms": replay * 1e3, "us_per_cell": per_cell}
        )
    writes = {run: runs[run]["writes"] for run in ("cold", "replay")}
    print(f"{writes['cold']} log writes cold, {writes['replay']} in the replay")
    print(json.dumps(
        {"n": args.n, "limit": args.limit, "cells": cells, "phases": phases, "writes": writes}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
