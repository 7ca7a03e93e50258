"""One set-up in a fresh interpreter: import the library, build the workload's
catalog entries and make a temporary directory, then print "ready" and the
durations of the speed samples taken meanwhile, as a JSON list.

Usage: python3 perfbench/setup_probe.py <workload> <scratch directory>
The caller times from spawning this process to reading "ready".
"""

import speed

SAMPLER = speed.Sampler(period=0.01).__enter__()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import lib  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, scratch = sys.argv[1], sys.argv[2]
    modules = lib.load()
    for entry in WORKLOADS[name].catalog_ids:
        modules.catalog.catalog(entry)
    directory = tempfile.mkdtemp(prefix="setup-", dir=scratch)
    SAMPLER.__exit__()
    print("ready", json.dumps([d for _, d in SAMPLER.samples]), flush=True)
    shutil.rmtree(directory)


if __name__ == "__main__":
    main()
