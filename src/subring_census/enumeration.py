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
  per prefix, and each candidate value is tested by at most s-r congruences.
  On a diagonal whose support is not full, or with any rule off, every
  survivor still receives the full certificate, so there the rules only have
  to be sound.  On a full-support diagonal with every rule on, the rules
  carry closure: exactly_one_one makes the last column all ones, so it is
  set in the template rather than searched, and the block-entry checks at
  r = 0 prove col(B) closed under products, so the leaf checks the identity
  alone and the rules must also be complete.  The naive engine (through
  n = 4), census rechecks and `permutation_gaps` check that completeness.

`visit_subrings` is the one serial driver of both engines: it walks the
diagonals under one node budget, prints the `--progress` lines and hands
each survivor's live rows and support block to a visitor.
`enumerate_subrings` collects snapshots through it (or through a worker pool
with threads > 1) and returns them in canonical order: diagonal composition
in lexicographic order, then column-major entry order, independent of rule
toggles and worker count.  Census misses count cotypes with a visitor and
build no matrix list (see `counting.CountLedger`).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

from .combinatorics import compositions
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


@functools.cache
def is_prime(m: int) -> bool:
    """Trial division; memoized, since every census cell proves its prime."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def check_cell(n: int, p: int, e: int) -> None:
    """Raise ValueError unless (n, p, e) names a census cell: n >= 1, p prime, e >= 0."""
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
        once per prefix, and a candidate value of the entry is tested by
        one congruence mod B[r, r] per column, at most s-r in all.

    On a diagonal whose support is not full, and whenever any rule is off,
    every survivor still receives the full definitional certificate, so the
    rules only have to be sound.  With every rule on, a full-support
    diagonal skips the leaf's product checks: exactly_one_one makes the last
    column all ones and the irreducible_block checks at r = 0 certify the
    block, so there the rules must be complete too.  There the last column
    is also set to ones instead of searched, which saves 2(n-1) nodes per
    survivor (a 0 and a 1 tried at each of its n-1 entries); under any
    other rule subset it is searched, and node counts are as before.
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


def _entry_test(block: list[list[int]], r: int, s: int) -> Callable[[int], bool]:
    """Test of the value v of block entry (r, s), given every entry placed
    before it: the products of block column s with block columns r..s, cut
    to rows r..s, lie in the span of the principal sub-block block[r..s][r..s].

    A block whose columns span a ring has every principal sub-block closed:
    columns 0..s span col(B) meet (Z^(s+1) x 0), an ideal, and projecting to
    coordinates r..s is a ring map onto the span of block[r..s][r..s].

    The product with column r is v times column r, so it always lies in the
    span.  For r < t <= s, rows r+1..s of the triangular system for the
    product with column t do not contain v; their solution c[r+1..s] is
    found once, the first time a candidate reaches t, and when it fails no
    candidate passes.  A candidate then passes at t iff the top row's
    residue v*block[r][t] - sum_{r<j<s} block[r][j]*c[j] - v*c[s] is 0 mod
    block[r][r], with block[r][t] read as v when t = s.  So each candidate
    costs at most s-r congruences.
    """
    top = block[r]
    pivot = top[r]
    sub = [row[r + 1 : s + 1] for row in block[r + 1 : s + 1]]
    last = [row[-1] for row in sub]
    width = s - r
    # t = r+1+u -> (sum_{r<j<s} block[r][j]*c[j], c[s]), or None when rows
    # r+1..s have no solution
    solved: dict[int, tuple[int, int] | None] = {}

    def accepts(v: int) -> bool:
        for u in range(width):
            if u not in solved:
                c = _solve_rows(sub, [x * row[u] for x, row in zip(last, sub)])
                if c is None:
                    solved[u] = None
                else:
                    solved[u] = (sum(a * b for a, b in zip(top[r + 1 : s], c)), c[-1])
            cond = solved[u]
            if cond is None:
                return False
            known, c_s = cond
            top_t = v if u == width - 1 else top[r + 1 + u]
            if (v * (top_t - c_s) - known) % pivot:
                return False
        return True

    return accepts


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
    supp_set = set(support)
    rows = _template_rows(n, p, exps)
    positions = _fill_positions(n, support)
    powers = {i: p ** exps[i] for i in support}
    last_col = n - 1

    # On a full-support diagonal with every rule on, exactly_one_one makes the
    # last column all ones, so it is set in the template and not searched; and
    # the entry tests at (0, s), each run once column s holds its final
    # values, prove col(B) closed under products: together they certify the
    # products, so the leaf checks the identity alone.
    closure_proved = len(support) == n - 1 and rules == PruneRuleSet()
    if closure_proved:
        for i in support:
            rows[i][last_col] = 1
        positions = [(i, j) for i, j in positions if j != last_col]

    unit_cols = {i: [j for j in range(i + 1, n) if j not in supp_set] for i in support}
    supp_after = {i: [j for j in support if j > i] for i in support}

    # the support block, kept in step with rows; block_at[idx] holds the
    # block indices of a position inside it
    block = [[powers[i] if i == j else 0 for j in support] for i in support]
    block_idx = {i: r for r, i in enumerate(support)}
    block_at = [(block_idx[i], block_idx[j]) if j in supp_set else None for i, j in positions]

    domains: list[range | tuple[int, ...]] = []
    for i, j in positions:
        bound = powers[i]
        if j in supp_set:
            domains.append(range(0, bound, p) if rules.block_divisibility else range(bound))
        elif rules.zero_one_outside_support or (rules.last_column and j == last_col):
            domains.append((0, 1))
        else:
            domains.append(range(bound))

    npos = len(positions)
    rule_one = rules.exactly_one_one
    rule_lc = rules.last_column
    rule_block = rules.irreducible_block

    def place(idx: int) -> None:
        if idx == npos:
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceededError(counter[0], budget)
            if _identity_check_support(rows, support, powers, n) and (
                closure_proved or products_in_span(rows)
            ):
                visit(rows, block)
            return
        i, j = positions[idx]
        row_i = rows[i]
        at = block_at[idx]
        check_block = rule_block and at is not None
        if check_block:
            accepts = _entry_test(block, *at)
        for v in domains[idx]:
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceededError(counter[0], budget)
            row_i[j] = v
            if at is not None:
                block[at[0]][at[1]] = v
                if check_block and (v % p or not accepts(v)):
                    continue
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
    if spec.diagonal is not None:
        return [tuple(spec.diagonal)]
    k = spec.corank
    if spec.mode == "pruned" and k == spec.n - 1:
        # full support: every part positive
        return compositions(spec.e, k, strict=True)
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
