#!/usr/bin/env python3
"""Search nodes, entry tests, matrices and seconds per irreducible cell G_m(p^j).

    python scripts/search_nodes.py 4,2,10 5,2,10 6,2,10 [--diagonals]

Each cell m,p,j is searched as a census miss searches it: the pruned engine
with every rule on, over the full-support diagonals of Z^m at index p^j
(corank m-1), with a visitor that only counts.  A census miss builds an
m = 2 cell as its one leaf, spending that leaf's node, without a search;
this script still searches it.  So the figures are those of
the search alone, without the leaf cotypes.  A node is one value placed at
an entry, or one leaf (see `enumeration.PruneRuleSet`).  An entry test is
one call of the block-entry test `enumeration._entry_values`, which hands
the search the accepted values of one support-block entry; the script counts
them by wrapping that module attribute while it searches.  Seconds are
wall-clock time of one run on this process, the wrapper's small cost
included, and us_per_node is seconds per node in microseconds.  With
--diagonals every diagonal gets its own line under its cell.

The last line of standard output is a JSON list with one object per cell:
m, p, j, nodes, entry_tests, matrices, seconds, us_per_node and, with
--diagonals, its diagonals.
"""

import argparse
import json
import sys
import time

from subring_census import enumeration
from subring_census.combinatorics import compositions
from subring_census.enumeration import EnumSpec, NodeBudget, check_cell, visit_subrings


def _us_per_node(row: dict) -> float:
    return row["seconds"] / row["nodes"] * 1e6 if row["nodes"] else float("nan")


def search_cell(m: int, p: int, j: int) -> list[dict]:
    """Nodes, entry tests, matrices and seconds of each full-support diagonal
    of G_m(p^j)."""
    entry_values = enumeration._entry_values
    tests = [0]

    def counted(block, r, s, p):
        tests[0] += 1
        return entry_values(block, r, s, p)

    out = []
    enumeration._entry_values = counted
    try:
        for diagonal in compositions(j, m - 1, strict=True):
            budget = NodeBudget()
            matrices = [0]
            tests[0] = 0

            def count(rows, block):
                matrices[0] += 1

            start = time.perf_counter()
            visit_subrings(EnumSpec(m, p, j, diagonal=diagonal), count, budget)
            row = {
                "diagonal": list(diagonal),
                "nodes": budget.used,
                "entry_tests": tests[0],
                "matrices": matrices[0],
                "seconds": time.perf_counter() - start,
            }
            row["us_per_node"] = _us_per_node(row)
            out.append(row)
    finally:
        enumeration._entry_values = entry_values
    return out


def _cell(text: str) -> tuple[int, int, int]:
    try:
        m, p, j = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected m,p,j, got {text!r}") from None
    return m, p, j


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("cells", nargs="+", type=_cell, metavar="m,p,j")
    parser.add_argument("--diagonals", action="store_true", help="one line per diagonal")
    args = parser.parse_args()

    for m, p, j in args.cells:
        try:
            check_cell(m, p, j)
        except ValueError as exc:
            parser.error(f"cell {m},{p},{j}: {exc}")

    summary = []
    print(
        f"{'cell':>14}  {'nodes':>10}  {'entry tests':>11}  {'matrices':>10}  "
        f"{'nodes/matrix':>12}  {'seconds':>8}  {'us/node':>7}"
    )
    for m, p, j in args.cells:
        diagonals = search_cell(m, p, j)
        cell = {
            "m": m,
            "p": p,
            "j": j,
            "nodes": sum(d["nodes"] for d in diagonals),
            "entry_tests": sum(d["entry_tests"] for d in diagonals),
            "matrices": sum(d["matrices"] for d in diagonals),
            "seconds": sum(d["seconds"] for d in diagonals),
        }
        cell["us_per_node"] = _us_per_node(cell)
        lines = [(f"G_{m}({p}^{j})", cell)]
        if args.diagonals:
            cell["diagonals"] = diagonals
            lines += [("  " + ",".join(map(str, d["diagonal"])), d) for d in diagonals]
        for name, row in lines:
            ratio = row["nodes"] / row["matrices"] if row["matrices"] else float("nan")
            print(
                f"{name:>14}  {row['nodes']:>10}  {row['entry_tests']:>11}  "
                f"{row['matrices']:>10}  {ratio:>12.2f}  {row['seconds']:>8.3f}  "
                f"{row['us_per_node']:>7.2f}"
            )
        summary.append(cell)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
