"""Enumeration of subring matrices of Z^n with determinant p^e.

Two engines emit exactly the matrices that pass one definitional certificate
(the identity vector and all pairwise column products must lie in the column
span):

* naive -- for every admissible diagonal, iterate the full Cartesian product
  of Hermite-form entry assignments and keep those whose matrix certifies.
  No structural shortcuts; this is the oracle the pruned engine is checked
  against.

* pruned -- backtracking over the same assignments with structural rules
  narrowing entry domains and cutting subtrees.  Each rule is a named,
  individually toggleable predicate.  The irreducible-block rule is checked
  as each support-block entry is placed, on the principal sub-block it
  completes, so a subtree is cut at the first entry that breaks closure.
  Only the top row of that check involves the entry: the rest is solved once
  per prefix, back-substituted in place on the live block, which leaves one
  congruence mod B[r][r] per later column.  The
  s-r-1 that are linear in the entry are solved to one residue class, and
  only its members are tested by the last, quadratic one, so the search is
  handed the accepted values of the entry and tries no other.  On a diagonal
  whose support is not full, or with any rule off, every survivor still
  receives the full certificate, so there the rules only have to be sound.
  On a full-support diagonal with every rule on, the rules carry closure:
  exactly_one_one makes the last column all ones, so it is set in the
  template rather than searched, where it is the identity, and the
  block-entry checks at r = 0 prove col(B) closed under products, so the
  leaf checks nothing and the rules must also be complete.  The naive
  engine (through n = 4), census rechecks and `permutation_gaps` check that
  completeness.

What a diagonal's search needs that depends only on its shape -- n, the
support and the rules, not p or the exponents -- is planned once per shape
and kept (`_diagonal_plan`): the fill positions, whether the rules prove
closure there, the support layout and each position's fixed domain.  Each
diagonal builds only its support, template rows and block, in one pass
(`_template_rows`, which the naive engine uses too), and the domain ranges
its rules leave to search.

`visit_subrings` is the one driver of both engines: it walks the diagonals
spending one `NodeBudget`, prints the `--progress` lines (`print_progress`,
which a census miss also calls for the G_2 block it builds without a
search), applies every `EnumSpec` filter and hands each survivor's live rows
and support block to a visitor.  `enumerate_subrings` collects snapshots
through it and returns them in canonical order: diagonal composition in
lexicographic order, then column-major entry order, independent of rule
toggles.
Census misses count cotypes with a visitor and build no matrix list.

A search node is one value placed at one entry, or one leaf reached.  Every
value of an entry's domain is a node, also one a later rule then rejects,
except at support-block entries with the irreducible-block rule on: there
only the accepted values are placed, so only they are nodes.  The
`NodeBudget` and the `--progress` lines count these.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

from .combinatorics import compositions, is_prime
# is_irreducible_rows and is_subring_rows are not called here;
# perfbench/tracing.py wraps both as call sites of this module
from .hnf import (
    SubringMatrix,
    hnf_from_columns,
    is_irreducible_rows,
    is_subring_rows,
    products_in_span,
    smith_normal_form,
)

ENGINE_VERSION = "0.1.0"
# the node limit of a NodeBudget that is not given one
DEFAULT_NODE_BUDGET = 10**9

Rows = tuple[tuple[int, ...], ...]
# visit(rows, block) at each survivor; see visit_subrings
Visit = Callable[[Sequence[Sequence[int]], list[list[int]]], None]


class BudgetExceededError(RuntimeError):
    """Search node budget ran out before the enumeration completed."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"node budget exhausted: {nodes} nodes > budget {budget}")
        self.nodes = nodes
        self.budget = budget


def check_cell(n: int, p: int, e: int) -> None:
    """Raise ValueError unless (n, p, e) names a census cell: integers (not
    bools) with n >= 1, p prime and e >= 0."""
    if not (type(n) is int and type(p) is int and type(e) is int):
        # the common case is three plain ints; this names the first that is
        # not an integer, rejecting bools and admitting int subclasses
        for name, value in (("n", n), ("p", p), ("e", e)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} = {value!r} is not an integer")
    if n < 1:
        raise ValueError("need n >= 1")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 0:
        raise ValueError("need e >= 0")


class NodeBudget:
    """A search node limit and the nodes used against it so far.

    Every search given the same budget spends it together: `used` is their
    running total, and the node that takes it past `limit` raises
    BudgetExceededError with nodes == limit + 1.  So one budget passed to
    several searches bounds them as a whole, and a fresh budget for each
    bounds each on its own.  The entry points that take a budget
    (`visit_subrings`, `enumerate_subrings`, `enumerate_irreducible`,
    `counting.CountLedger.census`, `counting.multiplicative_extend`) start a
    fresh default one when given None.  A limit below 1 raises ValueError.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        if limit < 1:
            raise ValueError("node budget must be positive")
        self.limit = limit
        self.used = 0


@dataclass(frozen=True)
class PruneRuleSet:
    """Toggles for the structural pruning rules of the backtracking engine.

    zero_one_outside_support: support-row entries outside support columns lie
        in {0, 1}.
    exactly_one_one: each support row carries exactly one 1 outside the
        support columns.
    block_divisibility: entries with both indices in the support are
        divisible by p.
    last_column: last-column entries lie in {0, 1}, and when exactly one of
        two support rows has a 1 there, the entry linking the two rows is 0.
    irreducible_block: the support block B, bordered by an all-ones column
        and a unit row, must itself certify as an irreducible subring matrix:
        its entries are 0 mod p and col(B) is closed under products.  Checked
        as each block entry (r, s) is placed: the products of block column s
        with block columns r..s, cut to block rows r..s, lie in the span of
        the principal sub-block B[r..s, r..s].  The product with column r
        always does; for each later column, block rows r+1..s are solved
        once per prefix, which leaves one congruence mod B[r, r] on the
        entry.  Those of the columns before s are linear and are solved,
        narrowing the class 0 mod p; that of column s is quadratic and is
        tested on each member of the class left.  Only the values that
        pass are placed, so with this rule on a block entry's nodes are its
        accepted values.

    On a diagonal whose support is not full, and whenever any rule is off,
    every survivor still receives the full definitional certificate, so the
    rules only have to be sound.  With every rule on, a full-support
    diagonal skips the whole leaf certificate: exactly_one_one makes the
    last column all ones, which is the identity, and the irreducible_block
    checks at r = 0 certify the block, so there the rules must be complete
    too.  There the last column is also set to ones instead of searched,
    which saves 2(n-1) nodes per survivor (a 0 and a 1 tried at each of its
    n-1 entries); under any other rule subset it is searched, and node
    counts are as before.
    """

    zero_one_outside_support: bool = True
    exactly_one_one: bool = True
    block_divisibility: bool = True
    last_column: bool = True
    irreducible_block: bool = True

    @classmethod
    def none(cls) -> "PruneRuleSet":
        return cls(**{f.name: False for f in fields(cls)})

    def fingerprint(self) -> str:
        """Rule bits in field order; ledger records store this string."""
        bits = "".join("1" if getattr(self, f.name) else "0" for f in fields(self))
        return f"rules-v1:{bits}"


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: dimension, prime power, mode and filters.

    corank restricts output to subrings of that corank.  In pruned mode this
    restricts diagonals to compositions with that support size; in naive mode
    matrices are filtered post hoc by their Smith-form corank, so comparing
    the two modes exercises the support-equals-corank fact rather than
    assuming it.  Corank n-1 selects exactly the irreducible subrings.
    diagonal, n-1 nonnegative exponents summing to e, restricts the search to
    that one diagonal; a corank given with it still applies.
    """

    n: int
    p: int
    e: int
    mode: str = "pruned"
    corank: int | None = None
    diagonal: tuple[int, ...] | None = None
    # one frozen rule set, shared by every spec that takes the default
    rules: PruneRuleSet = PruneRuleSet()
    progress: bool = False

    def __post_init__(self) -> None:
        check_cell(self.n, self.p, self.e)
        if self.mode not in ("naive", "pruned"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.corank is not None and not 0 <= self.corank < self.n:
            raise ValueError("corank filter must satisfy 0 <= k < n")
        if self.diagonal is not None:
            if len(self.diagonal) != self.n - 1:
                raise ValueError("diagonal filter must have n-1 parts")
            if any(v < 0 for v in self.diagonal):
                raise ValueError("diagonal filter parts must be nonnegative")
            if sum(self.diagonal) != self.e:
                raise ValueError("diagonal filter must sum to e")


def _template_rows(
    n: int, p: int, exps: tuple[int, ...]
) -> tuple[tuple[int, ...], list[list[int]], list[list[int]]]:
    """The support of a diagonal (the i with exps[i] > 0), its template rows
    and its support block, built in one pass over the exponents.

    Row i holds p^exps[i] on the diagonal and the last row is the unit row;
    every other entry is 0.  The block is the support rows and columns of
    the template: diagonal, the entries above it 0.
    """
    width = len(exps) - exps.count(0)
    support = []
    rows = []
    block = []
    for i, a in enumerate(exps):
        row = [0] * n
        if a:
            row[i] = q = p**a
            block_row = [0] * width
            block_row[len(block)] = q
            block.append(block_row)
            support.append(i)
        else:
            row[i] = 1
        rows.append(row)
    row = [0] * n
    row[-1] = 1
    rows.append(row)
    return tuple(support), rows, block


def _fill_positions(n: int, support: tuple[int, ...]) -> list[tuple[int, int]]:
    """Free entry positions: columns left to right, bottom to top in a column."""
    supp = set(support)
    out = []
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            if i in supp:
                out.append((i, j))
    return out


def _snapshot(rows: Sequence[Sequence[int]]) -> Rows:
    return tuple(tuple(row) for row in rows)


def _identity_check_support(rows: list[list[int]], support: tuple[int, ...], n: int) -> bool:
    """Identity membership evaluated only at support rows (unit rows solve to 1)."""
    c = [1] * n
    for i in reversed(support):
        row = rows[i]
        s = 1
        for j in range(i + 1, n):
            cj = c[j]
            if cj:
                s -= row[j] * cj
        q, r = divmod(s, row[i])
        if r:
            return False
        c[i] = q
    return True


def _naive_for_diagonal(
    spec: EnumSpec, exps: tuple[int, ...], budget: NodeBudget, visit: Visit
) -> None:
    """Full Cartesian product over entry domains, filtered by the certificate."""
    n, limit = spec.n, budget.limit
    support, rows, _ = _template_rows(n, spec.p, exps)
    positions = _fill_positions(n, support)
    domains = [range(rows[i][i]) for i, _ in positions]
    nodes = budget.used
    for combo in itertools.product(*domains):
        nodes += 1
        if nodes > limit:
            budget.used = nodes
            raise BudgetExceededError(nodes, limit)
        for (i, j), v in zip(positions, combo):
            rows[i][j] = v
        if _identity_check_support(rows, support, n) and products_in_span(rows):
            visit(rows, [[rows[i][j] for j in support] for i in support])
    budget.used = nodes


def _narrow(base: int, step: int, a: int, k: int, mod: int) -> tuple[int, int] | None:
    """The members v of the class base mod step with a*v = k (mod mod), as a
    class (base', step') with 0 <= base' < step', or None when there are none.

    Writing v = base + step*x turns the congruence into (a*step)*x = k -
    a*base (mod mod), which with g = gcd(a*step, mod) is solvable iff g
    divides the right-hand side, and then fixes x mod mod/g.
    """
    g = math.gcd(a * step, mod)
    rhs = k - a * base
    if rhs % g:
        return None
    m = mod // g
    x = rhs // g * pow(a * step // g, -1, m) % m
    return (base + step * x) % (step * m), step * m


def _entry_values(block: list[list[int]], r: int, s: int, p: int) -> list[int]:
    """The multiples v of p in [0, block[r][r]) that block entry (r, s) may
    take, ascending, given every entry placed before it: those for which the
    products of block column s with block columns r..s, cut to rows r..s,
    lie in the span of the principal sub-block block[r..s][r..s].

    A block whose columns span a ring has every principal sub-block closed:
    columns 0..s span col(B) meet (Z^(s+1) x 0), an ideal, and projecting to
    coordinates r..s is a ring map onto the span of block[r..s][r..s].

    The product with column r is v times column r, so it always lies in the
    span.  For r < t <= s, rows r+1..s of the triangular system for the
    product with column t do not contain v; when their solution c[r+1..s]
    fails, no value passes.  Otherwise v passes at t iff the top row's
    residue v*block[r][t] - sum_{r<j<s} block[r][j]*c[j] - v*c[s] is 0 mod
    P = block[r][r].  For t < s that congruence is linear in v, and each one
    narrows the class v = 0 mod p (`_narrow`); for t = s block[r][t] is v
    itself, and the quadratic condition is tested on each member of the
    class that is left.

    Each system is back-substituted bottom-up in place on the live rows
    block[r+1..s], with right-hand side block[i][s]*block[i][t] at row i:
    no sub-block, column or right-hand side is copied.
    """
    top = block[r]
    pivot = top[r]
    base, step = 0, p
    for t in range(r + 1, s + 1):
        # c[i - r - 1] solves row i of the system for t
        c = [0] * (s - r)
        for i in range(s, r, -1):
            row = block[i]
            acc = row[s] * row[t]
            for j in range(i + 1, s + 1):
                acc -= row[j] * c[j - r - 1]
            q, rem = divmod(acc, row[i])
            if rem:
                return []
            c[i - r - 1] = q
        known = sum(a * b for a, b in zip(top[r + 1 : s], c))
        c_s = c[-1]
        if t < s:
            narrowed = _narrow(base, step, top[t] - c_s, known, pivot)
            if narrowed is None:
                return []
            base, step = narrowed
    return [v for v in range(base, pivot, step) if (v * (v - c_s) - known) % pivot == 0]


class _DiagonalPlan(NamedTuple):
    """What the search of a diagonal needs that depends only on its shape:
    n, the support and the rules, not p or the exponents.  Entries are
    tuples, so one plan is shared by every diagonal of that shape."""

    positions: tuple[tuple[int, int], ...]
    closure_proved: bool
    # per row i: unit_cols[i] the columns j > i outside the support,
    # supp_after[i] the support indices j > i (empty off the support)
    unit_cols: tuple[tuple[int, ...], ...]
    supp_after: tuple[tuple[int, ...], ...]
    # per position: its (row, column) in the support block, or None
    block_at: tuple[tuple[int, int] | None, ...]
    # per position: (0, 1), or None where the values depend on the diagonal:
    # the entry test's values, or a range that ranged names
    domains: tuple[tuple[int, int] | None, ...]
    # (position, row, multiples of p only) of each position whose values are
    # a range below its row's power: multiples of p, or every residue
    ranged: tuple[tuple[int, int, bool], ...]


@functools.cache
def _diagonal_plan(n: int, support: tuple[int, ...], rules: PruneRuleSet) -> _DiagonalPlan:
    """The search plan of every diagonal of Z^n with this support under rules."""
    supp_set = set(support)
    last_col = n - 1
    positions = _fill_positions(n, support)

    # On a full-support diagonal with every rule on, exactly_one_one makes the
    # last column all ones, so it is set in the template and not searched, and
    # the identity is that column; the entry tests at (0, s), each run once
    # column s holds its final values, prove col(B) closed under products, so
    # the leaf checks nothing.
    closure_proved = len(support) == n - 1 and rules == PruneRuleSet()
    if closure_proved:
        positions = [(i, j) for i, j in positions if j != last_col]

    unit_cols = tuple(
        tuple(j for j in range(i + 1, n) if j not in supp_set) if i in supp_set else ()
        for i in range(n)
    )
    supp_after = tuple(tuple(j for j in support if j > i) for i in range(n))
    block_idx = {i: r for r, i in enumerate(support)}
    block_at = tuple(
        (block_idx[i], block_idx[j]) if j in supp_set else None for i, j in positions
    )
    domains: list[tuple[int, int] | None] = []
    ranged = []
    for idx, (i, j) in enumerate(positions):
        zero_one = j not in supp_set and (
            rules.zero_one_outside_support or (rules.last_column and j == last_col)
        )
        domains.append((0, 1) if zero_one else None)
        if not zero_one and not (j in supp_set and rules.irreducible_block):
            ranged.append((idx, i, j in supp_set and rules.block_divisibility))
    return _DiagonalPlan(
        tuple(positions),
        closure_proved,
        unit_cols,
        supp_after,
        block_at,
        tuple(domains),
        tuple(ranged),
    )


def _pruned_for_diagonal(
    spec: EnumSpec, exps: tuple[int, ...], budget: NodeBudget, visit: Visit
) -> None:
    n, p, rules, limit = spec.n, spec.p, spec.rules, budget.limit
    support, rows, block = _template_rows(n, p, exps)
    positions, closure_proved, unit_cols, supp_after, block_at, domains, ranged = (
        _diagonal_plan(n, support, rules)
    )
    last_col = n - 1
    if closure_proved:  # the last column is set, not searched
        for row in rows:
            row[last_col] = 1
    if ranged:
        domains = list(domains)
        for idx, i, by_p in ranged:
            domains[idx] = range(0, rows[i][i], p if by_p else 1)

    npos = len(positions)
    rule_one = rules.exactly_one_one
    rule_lc = rules.last_column

    def place(idx: int) -> None:
        if idx == npos:
            budget.used += 1
            if budget.used > limit:
                raise BudgetExceededError(budget.used, limit)
            if closure_proved or (
                _identity_check_support(rows, support, n) and products_in_span(rows)
            ):
                visit(rows, block)
            return
        i, j = positions[idx]
        row_i = rows[i]
        at = block_at[idx]
        values = domains[idx]
        if values is None:  # a block entry under the irreducible-block rule
            values = _entry_values(block, *at, p)
        for v in values:
            budget.used += 1
            if budget.used > limit:
                raise BudgetExceededError(budget.used, limit)
            row_i[j] = v
            if at is not None:
                block[at[0]][at[1]] = v
            if j == last_col:
                if rule_one and sum(1 for jj in unit_cols[i] if row_i[jj] == 1) != 1:
                    continue
                if rule_lc:
                    v_is_one = v == 1
                    ok = True
                    for i2 in supp_after[i]:
                        if (rows[i2][last_col] == 1) != v_is_one and row_i[i2] != 0:
                            ok = False
                            break
                    if not ok:
                        continue
            place(idx + 1)
        row_i[j] = 0
        if at is not None:
            block[at[0]][at[1]] = 0

    try:
        place(0)
    finally:
        # place holds itself through its closure; dropping the name breaks
        # that cycle, so the search state is freed on return or on a raise
        del place


@functools.lru_cache(maxsize=256)
def _strict_compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The full-support diagonals of every G_{parts+1}(total) search, listed
    once per (total, parts) and shared across primes."""
    return tuple(compositions(total, parts, strict=True))


def _diagonals_for_spec(spec: EnumSpec) -> list[tuple[int, ...]]:
    k = spec.corank
    if spec.diagonal is not None:
        exps_list = [tuple(spec.diagonal)]
    elif spec.mode == "pruned" and k == spec.n - 1:
        # full support: every part positive
        return list(_strict_compositions(spec.e, k))
    else:
        exps_list = compositions(spec.e, spec.n - 1, strict=False)
    if spec.mode == "pruned" and k is not None:
        exps_list = [t for t in exps_list if sum(1 for v in t if v > 0) == k]
    return exps_list


def _with_corank(visit: Visit, corank: int) -> Visit:
    """visit, called only on the survivors of that Smith-form corank."""

    def filtered(rows: Sequence[Sequence[int]], block: list[list[int]]) -> None:
        if sum(1 for s in smith_normal_form(rows) if s > 1) == corank:
            visit(rows, block)

    return filtered


def visit_subrings(spec: EnumSpec, visit: Visit, budget: NodeBudget | None = None) -> None:
    """Call visit(rows, block) on every survivor of the spec's search, serially,
    diagonal by diagonal in composition order, after every filter of the spec.

    rows is the survivor's n x n matrix and block its support block (rows and
    columns i with a diagonal entry > 1), both live lists of the search: the
    visitor reads them during the call and copies what it keeps.  Within a
    diagonal the order is the search's, not the canonical one.

    The search spends budget (see `NodeBudget`), a fresh default one when
    None, and raises BudgetExceededError when it runs out, possibly after
    some visits.
    """
    if budget is None:
        budget = NodeBudget()
    search = _pruned_for_diagonal
    if spec.mode == "naive":
        search = _naive_for_diagonal
        if spec.corank is not None:  # post hoc, by Smith form (see EnumSpec)
            visit = _with_corank(visit, spec.corank)
    exps_list = _diagonals_for_spec(spec)
    total = len(exps_list)
    for done, exps in enumerate(exps_list, start=1):
        search(spec, exps, budget, visit)
        if spec.progress:
            print_progress(spec.n, spec.p, spec.e, done, total, budget)


def print_progress(n: int, p: int, e: int, done: int, total: int, budget: NodeBudget) -> None:
    """The `--progress` line, on stderr, of the done-th of total diagonals of
    a search of Z^n at p^e.  It gives the nodes used of a budget the caller
    may share, so the count keeps growing across the enumerations of one
    census."""
    print(f"Z^{n} at {p}^{e}: diagonals {done}/{total}, {budget.used} nodes", file=sys.stderr)


def _canonical_key(rows: Rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # p^a is increasing in a, so diagonal entries order as exponent tuples;
    # ties go by the entries in column-major order
    n = len(rows)
    diagonal = tuple(rows[i][i] for i in range(n))
    return diagonal, tuple(rows[i][j] for j in range(n) for i in range(j + 1))


def enumerate_subrings(spec: EnumSpec, budget: NodeBudget | None = None) -> list[SubringMatrix]:
    """All subring matrices matching the spec, in canonical order: the
    survivors of `visit_subrings`, snapshotted and sorted.

    The search spends budget (see `NodeBudget`) and raises
    BudgetExceededError when it runs out; partial output is never returned.
    """
    found: list[Rows] = []
    visit_subrings(spec, lambda rows, block: found.append(_snapshot(rows)), budget)
    # every survivor is already certified by the search (see _pruned_for_diagonal)
    return [SubringMatrix(rows) for rows in sorted(found, key=_canonical_key)]


def permutation_gaps(matrices: list[SubringMatrix]) -> list[SubringMatrix]:
    """The members whose image under the coordinate swap (0 1) or the cycle
    (0 1 ... n-1) is not in the set.

    Permuting coordinates maps a subring to a subring of the same index and
    corank, so the subrings of Z^n at one index, or the irreducible ones
    among them, form a set closed under S_n; as the two permutations
    generate S_n, a set with no gaps is closed.  An image is the Hermite
    form of the permuted matrix's columns.  This checks a search for lost
    matrices without trusting its rules, but a search that loses whole
    S_n-orbits leaves no gap and escapes it.
    """
    present = {m.entries for m in matrices}
    gaps = []
    for m in matrices:
        n = m.n
        if n < 2:
            continue
        for image_of in ((1, 0, *range(2, n)), (*range(1, n), 0)):
            rows: list[tuple[int, ...]] = [()] * n
            for i, row in enumerate(m.entries):
                rows[image_of[i]] = row
            if hnf_from_columns(list(zip(*rows))).entries not in present:
                gaps.append(m)
                break
    return gaps


def enumerate_irreducible(
    n: int, p: int, e: int, budget: NodeBudget | None = None
) -> list[SubringMatrix]:
    """All irreducible subring matrices of Z^n with determinant p^e.

    A subring of p-power index splits uniquely into irreducible blocks, and
    a block of size m and index > 1 has corank m-1 (Liu, JCTA 114, 2007), so
    the irreducible ones are exactly those of corank n-1: the subring
    matrices on strict-composition (full support) diagonals.  Empty below
    the minimal index e = n-1.  The search spends budget (see `NodeBudget`).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return enumerate_subrings(EnumSpec(n, p, e, corank=n - 1), budget)
