#!/usr/bin/env python3
"""Scan the cotype census of Z^4 against the catalogued 3-variable factor.

Enumerates every subring of Z^4 of index p^e for e up to --max-exponent,
groups them by cotype, and prints each cotype next to the predicted series
coefficient.  The run that produced the catalogued coefficient table used
indices beyond 2^20; --max-exponent 14 reproduces a sizable slice of it on a
desk machine.
"""

import argparse
import sys
import time

from subring_census.catalog import catalog
from subring_census.counting import CountLedger
from subring_census.hnf import Cotype
from subring_census.polynomials import expand


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=2)
    parser.add_argument("--max-exponent", type=int, default=10)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    p, emax = args.prime, args.max_exponent
    ledger = CountLedger(args.cache_dir)
    table = expand(catalog("cotype_z4"), (emax, emax // 2, emax // 3), total=emax)
    predicted = {k: v for k, v in table.coefficients.items() if not v.is_zero()}

    mismatches = 0
    total = 0
    t0 = time.time()
    for e in range(emax + 1):
        record = ledger.census(4, p, e, threads=args.threads)
        total += record.f_count
        seen = {Cotype(a).exponents(p): count for a, count in record.cotype_counts.items()}
        expected = {
            key: poly.eval(p=p) for key, poly in predicted.items() if sum(key) == e
        }
        expected = {k: v for k, v in expected.items() if v}
        for key in sorted(set(seen) | set(expected)):
            s, x = seen.get(key, 0), expected.get(key, 0)
            flag = "" if s == x else "  <-- MISMATCH"
            if s != x:
                mismatches += 1
            print(f"e={e:2d}  cotype exponents {key}: census {s:8d}  series {x:8d}{flag}")
    dt = time.time() - t0
    print(f"\n{total} matrices across e <= {emax} at p = {p} in {dt:.1f}s; "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
