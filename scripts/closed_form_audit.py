#!/usr/bin/env python3
"""Audit the corank-2/3 closed-form counts against the exact census records.

For every (n, k, p, e) cell in the requested grid this prints the census
count h_counts[k] of `CountLedger.census`, the displayed closed form,
`formula_h`, and (for k = 3) the unweighted variant of the displayed pair
term, then the number of cells where each form differs from the census.

The displayed forms agree with the census through n = 4 and fail from n = 5
on; `formula_h` agrees everywhere.  The cause is the decomposition into
irreducible subrings (R. Liu, JCTA 114, 2007): a subring of Z_p^n of p-power
index splits uniquely into irreducible subrings over a set partition of the
coordinates, and an irreducible block of size m and index > 1 has corank
exactly m - 1.  Corank k therefore means a partition into n - k blocks, so

    h_{n,2}(p^e) = C(n,3) g_3(p^e) + 3 C(n,4) (e-1)
    h_{n,3}(p^e) = C(n,4) g_4(p^e) + 10 C(n,5) sum_{j=2}^{e-1} g_3(p^j)
                   + 15 C(n,6) C(e-1,2).

The displayed coefficients a(n), b(n) equal C(n,3), 3 C(n,4) only for n <= 4
and c(n), d(n) equal C(n,4), 10 C(n,5) only for n <= 5; the displayed
corank-3 form also weights the triple-pair term by (j-1) and has no
three-pair term, which matters from n = 6.
"""

import argparse
import sys

from subring_census.catalog import irreducible_count
from subring_census.counting import (
    CountLedger,
    corank3_formula_coefficients,
    displayed_formula_h,
    formula_h,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-e", type=int, default=6)
    parser.add_argument("--primes", default="2,3")
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    primes = [int(v) for v in args.primes.split(",")]
    ledger = CountLedger(args.cache_dir)
    displayed_mismatches = 0
    exact_mismatches = 0

    print(f"{'cell':>24}  {'census':>10}  {'displayed':>9}  {'formula_h':>9}  variant")
    for k in (2, 3):
        for n in range(k + 1, args.max_n + 1):
            for p in primes:
                for e in range(k, args.max_e + 1):
                    got = ledger.census(n, p, e).h_counts[k]
                    displayed = displayed_formula_h(n, k, p, e)
                    exact = formula_h(n, k, p, e)
                    variant = ""
                    if k == 3:
                        c, d = corank3_formula_coefficients(n)
                        unweighted = c * irreducible_count(4, p, e) + d * sum(
                            irreducible_count(3, p, j) for j in range(2, e)
                        )
                        variant = f"unweighted={unweighted}"
                    marks = []
                    if got != displayed:
                        displayed_mismatches += 1
                        marks.append("displayed")
                    if got != exact:
                        exact_mismatches += 1
                        marks.append("formula_h")
                    mark = f"  <-- differs from {' and '.join(marks)}" if marks else ""
                    cell = f"h(n={n},k={k};{p}^{e})"
                    print(f"{cell:>24}  {got:>10}  {displayed:>9}  {exact:>9}  {variant}{mark}")
    print(f"\n{displayed_mismatches} cells differ from the displayed closed forms")
    print(f"{exact_mismatches} cells differ from formula_h")
    return 0


if __name__ == "__main__":
    sys.exit(main())
