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
  per prefix, which leaves one congruence mod B[r][r] per later column.  The
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
closure there, the support layout and each position's domain kind.  Each
diagonal builds only its template rows, powers, block and domain ranges.

`visit_subrings` is the one serial driver of both engines: it walks the
diagonals under one node budget, prints the `--progress` lines and hands
each survivor's live rows and support block to a visitor.
`enumerate_subrings` collects snapshots through it (or through a worker pool
with threads > 1) and returns them in canonical order: diagonal composition
in lexicographic order, then column-major entry order, independent of rule
toggles and worker count.  Census misses count cotypes with a visitor and
build no matrix list (see `counting.CountLedger`).

A search node is one value placed at one entry, or one leaf reached.  Every
value of an entry's domain is a node, also one a later rule then rejects,
except at support-block entries with the irreducible-block rule on: there
only the accepted values are placed, so only they are nodes.  The node
budget and the `--progress` lines count these.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

from .combinatorics import compositions, is_prime
# is_irreducible_rows and is_subring_rows are not called here;
# perfbench/tracing.py wraps both as call sites of this module
from .hnf import (
    HnfMatrix,
    SubringMatrix,
    _solve_rows,
    hnf_from_columns,
    is_irreducible_rows,
    is_subring_rows,
    products_in_span,
)

ENGINE_VERSION = "0.1.0"

Rows = tuple[tuple[int, ...], ...]
# visit(rows, block) at each survivor; see visit_subrings
Visit = Callable[[Sequence[Sequence[int]], list[list[int]]], None]


class BudgetExceededError(RuntimeError):
    """Search node budget ran out before the enumeration completed."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"node budget exhausted: {nodes} nodes > budget {budget}")
        self.nodes = nodes
        self.budget = budget

    def __reduce__(self):
        # a pool worker sends the error to the parent pickled; the default
        # rebuilds from self.args, which hold only the message
        return type(self), (self.nodes, self.budget)


def check_cell(n: int, p: int, e: int) -> None:
    """Raise ValueError unless (n, p, e) names a census cell: integers (not
    bools) with n >= 1, p prime and e >= 0."""
    for name, value in (("n", n), ("p", p), ("e", e)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} = {value!r} is not an integer")
    if n < 1:
        raise ValueError("need n >= 1")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 0:
        raise ValueError("need e >= 0")


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
    """What to enumerate: dimension, prime power, mode, filters and budgets.

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
    rules: PruneRuleSet = field(default_factory=PruneRuleSet)
    node_budget: int = 10**9
    threads: int = 1
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
        if self.node_budget < 1:
            raise ValueError("node budget must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")


def _template_rows(n: int, p: int, exps: tuple[int, ...]) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i] = p ** exps[i]
    rows[n - 1][n - 1] = 1
    return rows


def _fill_positions(n: int, support: tuple[int, ...]) -> list[tuple[int, int]]:
    """Free entry positions: columns left to right, bottom to top in a column."""
    supp = set(support)
    out = []
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            if i in supp:
                out.append((i, j))
    return out


def _matrix_key(rows: Rows) -> tuple[int, ...]:
    n = len(rows)
    return tuple(rows[i][j] for j in range(n) for i in range(j + 1))


def _snapshot(rows: Sequence[Sequence[int]]) -> Rows:
    return tuple(tuple(row) for row in rows)


def _identity_check_support(
    rows: list[list[int]], support: tuple[int, ...], powers: dict[int, int], n: int
) -> bool:
    """Identity membership evaluated only at support rows (unit rows solve to 1)."""
    c = [1] * n
    for i in reversed(support):
        row = rows[i]
        s = 1
        for j in range(i + 1, n):
            cj = c[j]
            if cj:
                s -= row[j] * cj
        q, r = divmod(s, powers[i])
        if r:
            return False
        c[i] = q
    return True


def _naive_for_diagonal(
    n: int, p: int, exps: tuple[int, ...], counter: list[int], budget: int
) -> list[Rows]:
    """Full Cartesian product over entry domains, filtered by the certificate."""
    support = tuple(i for i, v in enumerate(exps) if v > 0)
    rows = _template_rows(n, p, exps)
    positions = _fill_positions(n, support)
    powers = {i: p ** exps[i] for i in support}
    domains = [range(powers[i]) for i, _ in positions]
    out: list[Rows] = []
    nodes = counter[0]
    for combo in itertools.product(*domains):
        nodes += 1
        if nodes > budget:
            counter[0] = nodes
            raise BudgetExceededError(nodes, budget)
        for (i, j), v in zip(positions, combo):
            rows[i][j] = v
        if _identity_check_support(rows, support, powers, n) and products_in_span(rows):
            out.append(_snapshot(rows))
    counter[0] = nodes
    return out


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
    """
    top = block[r]
    pivot = top[r]
    sub = [row[r + 1 : s + 1] for row in block[r + 1 : s + 1]]
    last = [row[-1] for row in sub]
    base, step = 0, p
    for u in range(s - r):
        c = _solve_rows(sub, [x * row[u] for x, row in zip(last, sub)])
        if c is None:
            return []
        known = sum(a * b for a, b in zip(top[r + 1 : s], c))
        c_s = c[-1]
        if u < s - r - 1:
            narrowed = _narrow(base, step, top[r + 1 + u] - c_s, known, pivot)
            if narrowed is None:
                return []
            base, step = narrowed
    return [v for v in range(base, pivot, step) if (v * (v - c_s) - known) % pivot == 0]


# domain kinds of a searched position: multiples of p below its row's power,
# {0, 1}, or every residue below that power
_BLOCK, _ZERO_ONE, _FULL = "block", "01", "full"


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
    kinds: tuple[str, ...]


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
    kinds = []
    for i, j in positions:
        if j in supp_set:
            kinds.append(_BLOCK if rules.block_divisibility else _FULL)
        elif rules.zero_one_outside_support or (rules.last_column and j == last_col):
            kinds.append(_ZERO_ONE)
        else:
            kinds.append(_FULL)
    return _DiagonalPlan(
        tuple(positions), closure_proved, unit_cols, supp_after, block_at, tuple(kinds)
    )


def _pruned_for_diagonal(
    n: int,
    p: int,
    exps: tuple[int, ...],
    rules: PruneRuleSet,
    counter: list[int],
    budget: int,
    visit: Visit,
) -> None:
    support = tuple(i for i, v in enumerate(exps) if v > 0)
    positions, closure_proved, unit_cols, supp_after, block_at, kinds = _diagonal_plan(
        n, support, rules
    )
    rows = _template_rows(n, p, exps)
    powers = {i: p ** exps[i] for i in support}
    last_col = n - 1
    if closure_proved:  # the last column is set, not searched
        for i in support:
            rows[i][last_col] = 1

    # the support block, kept in step with rows
    block = [[powers[i] if i == j else 0 for j in support] for i in support]
    domains: list[range | tuple[int, ...]] = []
    for (i, _), kind in zip(positions, kinds):
        if kind == _BLOCK:
            domains.append(range(0, powers[i], p))
        elif kind == _ZERO_ONE:
            domains.append((0, 1))
        else:
            domains.append(range(powers[i]))

    npos = len(positions)
    rule_one = rules.exactly_one_one
    rule_lc = rules.last_column
    rule_block = rules.irreducible_block

    def place(idx: int) -> None:
        if idx == npos:
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceededError(counter[0], budget)
            if closure_proved or (
                _identity_check_support(rows, support, powers, n) and products_in_span(rows)
            ):
                visit(rows, block)
            return
        i, j = positions[idx]
        row_i = rows[i]
        at = block_at[idx]
        values = _entry_values(block, *at, p) if rule_block and at is not None else domains[idx]
        for v in values:
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceededError(counter[0], budget)
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

    place(0)


def _support_block(rows: Rows, exps: tuple[int, ...]) -> list[list[int]]:
    support = [i for i, v in enumerate(exps) if v > 0]
    return [[rows[i][j] for j in support] for i in support]


def _search_diagonal(
    spec: EnumSpec, exps: tuple[int, ...], counter: list[int], visit: Visit
) -> None:
    """Visit the survivors of the spec's engine on one diagonal; nodes accrue
    in counter."""
    if spec.mode == "naive":
        for rows in _naive_for_diagonal(spec.n, spec.p, exps, counter, spec.node_budget):
            visit(rows, _support_block(rows, exps))
    else:
        _pruned_for_diagonal(
            spec.n, spec.p, exps, spec.rules, counter, spec.node_budget, visit
        )


def _diagonal_task(args: tuple[EnumSpec, tuple[int, ...]]) -> tuple[list[Rows], int]:
    spec, exps = args
    counter = [0]
    found: list[Rows] = []
    _search_diagonal(spec, exps, counter, lambda rows, block: found.append(_snapshot(rows)))
    return found, counter[0]


def _diagonals_for_spec(spec: EnumSpec) -> list[tuple[int, ...]]:
    k = spec.corank
    if spec.diagonal is not None:
        exps_list = [tuple(spec.diagonal)]
    elif spec.mode == "pruned" and k == spec.n - 1:
        # full support: every part positive
        return compositions(spec.e, k, strict=True)
    else:
        exps_list = compositions(spec.e, spec.n - 1, strict=False)
    if spec.mode == "pruned" and k is not None:
        exps_list = [t for t in exps_list if sum(1 for v in t if v > 0) == k]
    return exps_list


def _report_progress(spec: EnumSpec, done: int, total: int, nodes: int) -> None:
    # nodes is the running total of the counter the caller shares, so it
    # keeps growing across the enumerations of one census
    print(
        f"Z^{spec.n} at {spec.p}^{spec.e}: diagonals {done}/{total}, {nodes} nodes",
        file=sys.stderr,
    )


def visit_subrings(spec: EnumSpec, visit: Visit, counter: list[int] | None = None) -> None:
    """Call visit(rows, block) on every survivor of the spec's search, serially,
    diagonal by diagonal in composition order.

    rows is the survivor's n x n matrix and block its support block (rows and
    columns i with a diagonal entry > 1), both live lists of the search: the
    visitor reads them during the call and copies what it keeps.  Within a
    diagonal the order is the search's, not the canonical one; the naive
    engine's corank filter is applied by `enumerate_subrings`, not here.

    counter, a one-element list, accrues the search nodes; the budget bounds
    its running total, so calls that pass the same counter share one budget.
    Raises BudgetExceededError when it runs out, possibly after some visits.
    """
    if counter is None:
        counter = [0]
    exps_list = _diagonals_for_spec(spec)
    total = len(exps_list)
    for done, exps in enumerate(exps_list, start=1):
        _search_diagonal(spec, exps, counter, visit)
        if spec.progress:
            _report_progress(spec, done, total, counter[0])


def _canonical_key(rows: Rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # p^a is increasing in a, so diagonal entries order as exponent tuples
    return tuple(row[i] for i, row in enumerate(rows)), _matrix_key(rows)


def enumerate_subrings(spec: EnumSpec, counter: list[int] | None = None) -> list[SubringMatrix]:
    """All subring matrices matching the spec, in canonical order.

    Raises BudgetExceededError when the node budget runs out; partial output
    is never returned.  With threads > 1 the per-diagonal subtrees run in
    worker processes and are merged back in canonical order, so the result
    is identical to a serial run, which is `visit_subrings` with a collector.

    counter, a one-element list, accrues the search nodes; the budget bounds
    its running total, so calls that pass the same counter share one budget.
    """
    if counter is None:
        counter = [0]
    exps_list = _diagonals_for_spec(spec)
    total = len(exps_list)
    found: list[Rows] = []

    if spec.threads > 1 and total > 1:
        # a worker stops its diagonal at the whole budget; the running sum
        # bounds the run, and raising leaves the with block, which terminates
        # the pool without waiting for the other workers
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=spec.threads) as pool:
            tasks = pool.imap(_diagonal_task, [(spec, t) for t in exps_list])
            for done, (rows_list, used) in enumerate(tasks, start=1):
                counter[0] += used
                if counter[0] > spec.node_budget:
                    raise BudgetExceededError(counter[0], spec.node_budget)
                found.extend(rows_list)
                if spec.progress:
                    _report_progress(spec, done, total, counter[0])
    else:
        visit_subrings(spec, lambda rows, block: found.append(_snapshot(rows)), counter)

    # every survivor is already certified by the search (see _pruned_for_diagonal)
    matrices = [SubringMatrix(HnfMatrix(rows)) for rows in sorted(found, key=_canonical_key)]
    if spec.mode == "naive" and spec.corank is not None:
        matrices = [m for m in matrices if m.corank() == spec.corank]
    return matrices


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
    n: int, p: int, e: int, node_budget: int = 10**9
) -> list[SubringMatrix]:
    """All irreducible subring matrices of Z^n with determinant p^e.

    A subring of p-power index splits uniquely into irreducible blocks, and
    a block of size m and index > 1 has corank m-1 (Liu, JCTA 114, 2007), so
    the irreducible ones are exactly those of corank n-1: the subring
    matrices on strict-composition (full support) diagonals.  Empty below
    the minimal index e = n-1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return enumerate_subrings(EnumSpec(n, p, e, corank=n - 1, node_budget=node_budget))
