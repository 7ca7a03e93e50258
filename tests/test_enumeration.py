import itertools
import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import subring_census
from subring_census import enumeration
from subring_census.catalog import irreducible_count
from subring_census.combinatorics import binomial, compositions
from subring_census.enumeration import (
    BudgetExceededError,
    EnumSpec,
    PruneRuleSet,
    _diagonal_task,
    _diagonals_for_spec,
    _entry_values,
    _narrow,
    enumerate_irreducible,
    enumerate_subrings,
    permutation_gaps,
    visit_subrings,
)
from subring_census.hnf import (
    _solve_rows,
    canonical_rpstar,
    is_irreducible_rows,
    is_subring_matrix,
    is_subring_rows,
    products_in_span,
)


def entries(ms):
    return [m.entries for m in ms]


def count_g_alpha(alpha: tuple[int, ...], p: int) -> int:
    """Number of irreducible subring matrices with diagonal exponents alpha.

    alpha has n-1 strict parts for matrices of size n = len(alpha) + 1.
    """
    if any(v < 1 for v in alpha):
        raise ValueError("alpha must be a strict composition")
    return len(enumerate_subrings(EnumSpec(len(alpha) + 1, p, sum(alpha), diagonal=alpha)))


class TestSpecValidation:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            EnumSpec(n=3, p=4, e=1)

    def test_rejects_bad_corank(self):
        with pytest.raises(ValueError):
            EnumSpec(n=3, p=2, e=1, corank=3)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            EnumSpec(n=3, p=2, e=2, diagonal=(1,))
        with pytest.raises(ValueError):
            EnumSpec(n=3, p=2, e=2, diagonal=(1, 2))
        with pytest.raises(ValueError):
            EnumSpec(n=3, p=2, e=2, diagonal=(3, -1))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            EnumSpec(n=3, p=2, e=1, mode="fast")

    @pytest.mark.parametrize("cell", [(True, 2, 1), (3, 2.0, 1), (3.0, 2, 1), (3, 2, 1.0)])
    def test_rejects_non_integer_cell(self, cell):
        with pytest.raises(ValueError, match="not an integer"):
            EnumSpec(*cell)


class TestKnownCounts:
    def test_rank_two_always_one(self):
        for p in (2, 3, 5):
            for e in range(6):
                ms = enumerate_subrings(EnumSpec(n=2, p=p, e=e))
                assert len(ms) == 1
                if e:
                    assert ms[0].entries == ((p**e, 1), (0, 1))

    def test_index_p_count(self):
        for n in (2, 3, 4, 5):
            ms = enumerate_subrings(EnumSpec(n=n, p=2, e=1))
            assert len(ms) == binomial(n, 2)
            assert all(m.corank() == 1 for m in ms)

    def test_index_one(self):
        ms = enumerate_subrings(EnumSpec(n=4, p=3, e=0))
        assert len(ms) == 1
        assert ms[0].corank() == 0

    def test_rank_one(self):
        assert len(enumerate_subrings(EnumSpec(n=1, p=2, e=0))) == 1
        assert enumerate_subrings(EnumSpec(n=1, p=2, e=1)) == []

    def test_z3_counts_match_series(self):
        # frozen from the catalogued local factor at p = 2
        assert [
            len(enumerate_subrings(EnumSpec(n=3, p=2, e=e))) for e in range(9)
        ] == [1, 3, 4, 6, 10, 12, 16, 24, 28]

    def test_unique_full_corank_matrix(self):
        ms = enumerate_subrings(EnumSpec(n=4, p=2, e=3, corank=3))
        assert entries(ms) == [canonical_rpstar(4, 2).entries]


class TestIrreducible:
    def test_minimal_indices(self):
        assert len(enumerate_irreducible(3, 2, 2)) == 1
        assert enumerate_irreducible(3, 2, 1) == []
        assert enumerate_irreducible(4, 5, 2) == []

    def test_rank_two_is_irreducible(self):
        for p in (2, 3):
            for e in (1, 2, 3):
                ms = enumerate_irreducible(2, p, e)
                assert entries(ms) == [((p**e, 1), (0, 1))]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counts_match_series_z3(self, p):
        for e in range(2, 8):
            assert len(enumerate_irreducible(3, p, e)) == irreducible_count(3, p, e)

    @pytest.mark.parametrize("p", [2, 3])
    def test_counts_match_series_z4(self, p):
        for e in range(3, 7):
            assert len(enumerate_irreducible(4, p, e)) == irreducible_count(4, p, e)

    def test_emitted_matrices_satisfy_criterion(self):
        for m in enumerate_irreducible(4, 2, 5):
            assert is_irreducible_rows(m.entries, 2)

    def test_count_g_alpha(self):
        for p in (2, 3, 5):
            assert count_g_alpha((1, 1), p) == 1
            assert count_g_alpha((1,), p) == 1
        # decomposition by diagonal: sums over strict compositions give the totals
        from subring_census.combinatorics import compositions

        for p in (2, 3, 5):
            for e in range(2, 8):
                total = sum(count_g_alpha(c, p) for c in compositions(e, 2, strict=True))
                assert total == irreducible_count(3, p, e)

    def test_count_g_alpha_rejects_weak(self):
        with pytest.raises(ValueError):
            count_g_alpha((1, 0), 2)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_naive_matches_pruned(self, n, p):
        # (4, 2, e <= 5) and (5, 2, e <= 4) reach support blocks of size 3 and 4
        # whose entries have more than one value
        emax = {(4, 2): 5, (5, 2): 4}.get((n, p), 3)
        for e in range(emax + 1):
            naive = enumerate_subrings(EnumSpec(n=n, p=p, e=e, mode="naive"))
            pruned = enumerate_subrings(EnumSpec(n=n, p=p, e=e, mode="pruned"))
            assert entries(naive) == entries(pruned)

    def test_rules_off_equals_naive(self):
        spec_off = EnumSpec(n=4, p=2, e=3, mode="pruned", rules=PruneRuleSet.none())
        naive = EnumSpec(n=4, p=2, e=3, mode="naive")
        assert entries(enumerate_subrings(spec_off)) == entries(enumerate_subrings(naive))

    def test_single_rule_toggles_preserve_output(self):
        base = entries(enumerate_subrings(EnumSpec(n=4, p=2, e=3)))
        for f in fields(PruneRuleSet):
            rules = PruneRuleSet(**{f.name: False})
            got = entries(enumerate_subrings(EnumSpec(n=4, p=2, e=3, rules=rules)))
            assert got == base, f"rule toggle {f.name} changed the output"

    def test_rule_fingerprints_are_stable(self):
        # ledger records store these strings; a reordered field breaks replay
        assert PruneRuleSet().fingerprint() == "rules-v1:11111"
        assert PruneRuleSet.none().fingerprint() == "rules-v1:00000"
        assert PruneRuleSet(last_column=False).fingerprint() == "rules-v1:11101"

    def test_corank_filter_matches_posthoc(self):
        # a corank given with a fixed diagonal still applies, in both modes
        for n, p, e in ((3, 2, 3), (3, 3, 4), (4, 2, 3), (4, 2, 5)):
            for k in range(n):
                for d in (None, *compositions(e, n - 1)):
                    pruned = enumerate_subrings(EnumSpec(n=n, p=p, e=e, corank=k, diagonal=d))
                    naive = enumerate_subrings(
                        EnumSpec(n=n, p=p, e=e, mode="naive", corank=k, diagonal=d)
                    )
                    assert entries(pruned) == entries(naive), (n, p, e, k, d)
                    assert all(m.corank() == k for m in pruned)

    def test_irreducible_filter_matches_posthoc(self):
        # the irreducible selection is corank n-1: checked against the
        # matrix-level criterion on every matrix, kept or not
        for n, p, e in ((3, 2, 3), (3, 3, 4), (4, 2, 3), (4, 2, 5)):
            every = enumerate_subrings(EnumSpec(n=n, p=p, e=e, mode="naive"))
            irreducible = [m.entries for m in every if is_irreducible_rows(m.entries, p)]
            pruned = enumerate_subrings(EnumSpec(n=n, p=p, e=e, corank=n - 1))
            naive = enumerate_subrings(EnumSpec(n=n, p=p, e=e, mode="naive", corank=n - 1))
            assert entries(pruned) == irreducible
            assert entries(naive) == irreducible
            assert entries(enumerate_irreducible(n, p, e)) == irreducible


def _bordered(block):
    """The support block bordered by an all-ones column and a unit row."""
    k = len(block)
    return [list(row) + [1] for row in block] + [[0] * k + [1]]


def _sub_block_closed(block, r, s):
    """Products of block column s with block columns r..s, cut to rows r..s,
    lie in the span of the principal sub-block block[r..s][r..s]: the slow
    oracle for the search's entry test, one back-substitution per product."""
    sub = [row[r : s + 1] for row in block[r : s + 1]]
    last = [row[-1] for row in sub]
    for t in range(s - r + 1):
        if _solve_rows(sub, [x * row[t] for x, row in zip(last, sub)]) is None:
            return False
    return True


class TestSubBlockCheck:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_bordered_certificate(self, p):
        # The search reaches block column k-1 only when every earlier column
        # passed its checks; then the (0, k-1) check decides the bordered
        # block's certificate, and an accepted block passes every principal
        # sub-block check.
        rng = random.Random(p)
        seen = {True: 0, False: 0}
        for k in range(1, 5):
            for _ in range(300):
                block = [[0] * k for _ in range(k)]
                for r in range(k):
                    block[r][r] = p ** rng.randint(1, 3)
                    for s in range(r + 1, k):
                        block[r][s] = rng.randrange(0, block[r][r], p)
                certified = is_subring_rows(_bordered(block))
                if not all(_sub_block_closed(block, 0, s) for s in range(k - 1)):
                    assert not certified
                    continue
                assert _sub_block_closed(block, 0, k - 1) == certified
                seen[certified] += 1
                if certified:
                    assert all(
                        _sub_block_closed(block, r, s) for s in range(k) for r in range(s + 1)
                    )
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_entry_test_matches_oracle(self, p):
        # The values returned for (r, s), computed before block[r][s] holds
        # one as in the search, must be exactly the multiples of p that the
        # full sub-block solve accepts, in ascending order.
        rng = random.Random(100 + p)
        seen = {"rows below fail": 0, "accepted": 0, "rejected": 0}
        for k in range(2, 6):
            for _ in range(60):
                block = [[0] * k for _ in range(k)]
                for r in range(k):
                    block[r][r] = p ** rng.randint(1, 3)
                    for s in range(r + 1, k):
                        block[r][s] = rng.randrange(0, block[r][r], p)
                for s in range(1, k):
                    for r in range(s):
                        kept = block[r][s]
                        block[r][s] = 0
                        got = _entry_values(block, r, s, p)
                        rows_below_fail = not _sub_block_closed(block, r + 1, s)
                        seen["rows below fail"] += rows_below_fail
                        closed = []
                        for v in range(0, block[r][r], p):
                            block[r][s] = v
                            if _sub_block_closed(block, r, s):
                                closed.append(v)
                        assert got == closed, (block, r, s)
                        assert not (closed and rows_below_fail)
                        if not rows_below_fail:
                            seen["accepted"] += len(closed)
                            seen["rejected"] += block[r][r] // p - len(closed)
                        block[r][s] = kept
        assert min(seen.values()) >= 20, seen


@given(
    st.integers(-20, 20),
    st.integers(1, 12),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(1, 40),
)
# gcd(a, mod) > 1 with a solvable and an unsolvable right-hand side, a
# modulus of 1, and a congruence every member of the class already meets
@example(0, 2, 4, 8, 16)
@example(0, 2, 4, 2, 16)
@example(3, 5, 7, 2, 1)
@example(0, 8, 3, 0, 8)
@settings(max_examples=300, deadline=None)
def test_narrow_matches_brute_force(base, step, a, k, mod):
    # the members of base mod step with a*v = k (mod mod), over one period
    period = step * mod
    brute = [v for v in range(period) if (v - base) % step == 0 and (a * v - k) % mod == 0]
    got = _narrow(base, step, a, k, mod)
    if got is None:
        assert brute == []
    else:
        b, m = got
        assert 0 <= b < m and period % m == 0
        assert brute == list(range(b, period, m))


def uncertified(matrices):
    """The matrices that fail the definitional certificate, by either route."""
    return [
        m for m in matrices if not (products_in_span(m.entries) and is_subring_rows(m.entries))
    ]


class TestIdentityLeaf:
    # On full-support diagonals with every rule on, the leaf trusts the
    # entry tests at (0, s) for closure, and the all-ones last column is the
    # identity, so it checks nothing.

    @pytest.mark.parametrize(
        "p,tops", [(2, {3: 12, 4: 10, 5: 9, 6: 8}), (3, {3: 8, 4: 7, 5: 6, 6: 7})]
    )
    def test_full_support_survivors_certify(self, p, tops):
        seen = 0
        for m, top in tops.items():
            for e in range(m - 1, top + 1):
                survivors = enumerate_subrings(EnumSpec(m, p, e, corank=m - 1))
                assert uncertified(survivors) == [], (m, p, e)
                seen += len(survivors)
        assert seen > 1000

    @pytest.mark.parametrize("s0", [1, 2])
    def test_dropped_top_entry_test_is_caught(self, monkeypatch, s0):
        # yielding every multiple of p at (0, s0) lets non-subrings through
        # the leaf; both the certificate and the permutation closure see them
        def every_multiple_at_s0(block, r, s, p):
            if (r, s) == (0, s0):
                return list(range(0, block[r][r], p))
            return _entry_values(block, r, s, p)

        monkeypatch.setattr(enumeration, "_entry_values", every_multiple_at_s0)
        survivors = enumerate_subrings(EnumSpec(4, 2, 6, corank=3))
        assert uncertified(survivors)
        assert permutation_gaps(survivors)

    def test_products_skipped_only_with_full_support_and_every_rule(self, monkeypatch):
        # calls of the products check and of the identity check
        calls = {"products": 0, "identity": 0}

        def counted(name, check):
            def wrapper(*args):
                calls[name] += 1
                return check(*args)

            return wrapper

        monkeypatch.setattr(enumeration, "products_in_span", counted("products", products_in_span))
        monkeypatch.setattr(
            enumeration,
            "_identity_check_support",
            counted("identity", enumeration._identity_check_support),
        )
        full = EnumSpec(4, 2, 6, corank=3)
        expected = entries(enumerate_subrings(full))
        assert expected and calls == {"products": 0, "identity": 0}
        for f in fields(PruneRuleSet):
            calls.update(products=0, identity=0)
            rules = PruneRuleSet(**{f.name: False})
            got = enumerate_subrings(EnumSpec(4, 2, 6, corank=3, rules=rules))
            assert entries(got) == expected, f.name
            assert calls["products"] >= len(expected) and calls["identity"] > 0, f.name
        naive = EnumSpec(4, 2, 3, mode="naive", diagonal=(1, 1, 1))
        for spec in (EnumSpec(4, 2, 6, corank=2), naive):
            calls.update(products=0, identity=0)
            assert enumerate_subrings(spec), spec
            assert calls["products"] > 0 and calls["identity"] > 0, spec


class TestVisitSubrings:
    @pytest.mark.parametrize(
        "spec",
        [EnumSpec(4, 2, 5), EnumSpec(4, 3, 4, corank=3), EnumSpec(4, 2, 3, mode="naive")]
        + [EnumSpec(4, 2, 5, rules=PruneRuleSet(**{f.name: False})) for f in fields(PruneRuleSet)],
    )
    def test_visits_survivors_with_their_support_block(self, spec):
        seen = []

        def visit(rows, block):
            support = [i for i in range(len(rows)) if rows[i][i] > 1]
            assert block == [[rows[i][j] for j in support] for i in support]
            seen.append(tuple(map(tuple, rows)))

        counter = [0]
        visit_subrings(spec, visit, counter)
        expected = [m.entries for m in enumerate_subrings(spec, [0])]
        assert sorted(seen) == sorted(expected) and len(seen) == len(set(seen))
        again = [0]
        enumerate_subrings(spec, again)
        assert counter == again


class TestPermutationClosure:
    def test_irreducible_sets_closed(self):
        for m in range(2, 8):
            for j in range(m - 1, 9):
                assert permutation_gaps(enumerate_irreducible(m, 2, j)) == [], (m, j)

    def test_full_census_closed(self):
        for n, p, e in ((3, 2, 6), (4, 2, 6), (4, 3, 4)):
            assert permutation_gaps(enumerate_subrings(EnumSpec(n, p, e))) == []

    def test_missing_matrix_leaves_gaps(self):
        matrices = enumerate_irreducible(4, 2, 5)
        for drop in range(len(matrices)):
            rest = matrices[:drop] + matrices[drop + 1 :]
            assert permutation_gaps(rest), drop


class TestDeterminism:
    def test_thread_count_does_not_change_output(self):
        serial = enumerate_subrings(EnumSpec(n=4, p=2, e=4))
        parallel = enumerate_subrings(EnumSpec(n=4, p=2, e=4, threads=2))
        assert entries(serial) == entries(parallel)

    def test_diagonal_filter(self):
        ms = enumerate_subrings(EnumSpec(n=3, p=2, e=3, diagonal=(2, 1)))
        assert all(m.diagonal == (4, 2, 1) for m in ms)
        total = sum(
            len(enumerate_subrings(EnumSpec(n=3, p=2, e=3, diagonal=d)))
            for d in ((0, 3), (1, 2), (2, 1), (3, 0))
        )
        assert total == len(enumerate_subrings(EnumSpec(n=3, p=2, e=3)))

    def test_canonical_order_is_sorted(self):
        def exps_of(m):
            out = []
            for d in m.diagonal[:-1]:
                e = 0
                while d > 1:
                    d //= 2
                    e += 1
                out.append(e)
            return tuple(out)

        ms = enumerate_subrings(EnumSpec(n=4, p=2, e=3))
        keys = [
            (exps_of(m), tuple(m.entries[i][j] for j in range(4) for i in range(j + 1)))
            for m in ms
        ]
        assert keys == sorted(keys)


class TestBudget:
    def test_node_count_pin(self):
        # the irreducible-block rule's entry values decide which subtrees are
        # cut, so a change to them that keeps the output can still move this
        counter = [0]
        enumerate_subrings(EnumSpec(4, 2, 11), counter)
        assert counter[0] == 5598

    def test_last_column_searched_unless_every_rule_on(self):
        # The full-support cell's node counts with the last column searched;
        # only with every rule on is it set, 2 * 3 nodes fewer per survivor.
        # With irreducible_block on, a block entry's node count is its
        # accepted values, so turning block_divisibility off costs nothing.
        searched = {
            "zero_one_outside_support": 591,
            "exactly_one_one": 1222,
            "block_divisibility": 591,
            "last_column": 591,
            "irreducible_block": 1315,
        }
        expected = entries(enumerate_subrings(EnumSpec(4, 2, 6, corank=3)))
        assert len(expected) == 67
        for name, nodes in searched.items():
            counter = [0]
            spec = EnumSpec(4, 2, 6, corank=3, rules=PruneRuleSet(**{name: False}))
            assert entries(enumerate_subrings(spec, counter)) == expected, name
            assert counter[0] == nodes, name
        counter = [0]
        enumerate_subrings(EnumSpec(4, 2, 6, corank=3), counter)
        assert counter[0] == 591 - 6 * 67

    @pytest.mark.parametrize("p, e", [(2, 6), (3, 4)])
    def test_plan_cache_carries_nothing_between_rule_sets(self, p, e):
        # the rule subsets above: each rule off alone, then every rule on
        subsets = [PruneRuleSet(**{f.name: False}) for f in fields(PruneRuleSet)]
        subsets.append(PruneRuleSet())

        def run(rules):
            counter, seen = [0], []

            def visit(rows, block):
                seen.append(tuple(map(tuple, rows)))

            visit_subrings(EnumSpec(4, p, e, rules=rules), visit, counter)
            return seen, counter[0]

        fresh = {}
        for rules in subsets:
            enumeration._diagonal_plan.cache_clear()
            fresh[rules] = run(rules)
        enumeration._diagonal_plan.cache_clear()
        for rules in subsets + subsets[::-1]:
            assert run(rules) == fresh[rules], rules

    def test_plan_entries_are_tuples(self):
        # one plan serves every diagonal of its shape, so nothing in it may
        # be mutable
        for rules in (PruneRuleSet(), PruneRuleSet.none()):
            plan = enumeration._diagonal_plan(4, (0, 1, 2), rules)
            assert plan is enumeration._diagonal_plan(4, (0, 1, 2), rules)
            assert plan.closure_proved == (rules == PruneRuleSet())
            for name in ("positions", "unit_cols", "supp_after", "block_at", "kinds"):
                value = getattr(plan, name)
                assert isinstance(value, tuple), name
                assert all(v is None or isinstance(v, (tuple, str)) for v in value), name

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceededError):
            enumerate_subrings(EnumSpec(n=4, p=3, e=4, mode="naive", node_budget=100))

    def test_budget_error_reports_counts(self):
        try:
            enumerate_subrings(EnumSpec(n=4, p=3, e=4, mode="naive", node_budget=100))
        except BudgetExceededError as exc:
            assert exc.budget == 100
            assert exc.nodes > 100

    def test_budget_error_pickles(self):
        exc = BudgetExceededError(30001, 30000)
        back = pickle.loads(pickle.dumps(exc))
        assert (back.nodes, back.budget) == (30001, 30000)
        assert str(back) == str(exc)

    @staticmethod
    def _threaded_budget_error(budget):
        # The run is in a child process so that a hanging pool fails on the
        # timeout instead of stalling the suite.
        code = (
            "from subring_census.enumeration import BudgetExceededError, EnumSpec, "
            "enumerate_subrings\n"
            "try:\n"
            f"    enumerate_subrings(EnumSpec(n=4, p=2, e=11, node_budget={budget}, threads=2))\n"
            "except BudgetExceededError as exc:\n"
            "    print(exc.budget, exc.nodes)\n"
        )
        src = str(Path(subring_census.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        budget_seen, nodes = map(int, done.stdout.split())
        assert budget_seen == budget
        return nodes

    def test_budget_exhaustion_under_threads(self):
        # A worker's error must reach the parent.  The first diagonals at
        # (4, 2, 11) take 3, 6 and 12 nodes, so with budget 10 the third one
        # stops in its worker (at budget + 1 nodes) while the parent's sum is 9.
        assert self._threaded_budget_error(10) == 11

    def test_budget_is_global_under_threads(self):
        # With a budget above every single diagonal but below their sum, only
        # the parent's running sum can raise, and it must raise at the first
        # diagonal that takes the sum past the budget, not after the last.
        spec = EnumSpec(n=4, p=2, e=11)
        used = [_diagonal_task((spec, t))[1] for t in _diagonals_for_spec(spec)]
        budget = sum(used) // 2
        assert max(used) < budget < sum(used)
        first_over = next(total for total in itertools.accumulate(used) if total > budget)
        assert first_over < sum(used)
        assert self._threaded_budget_error(budget) == first_over


def test_full_support_diagonals_are_strict_compositions():
    # listed directly, they must equal the filtered weak compositions, in order
    from subring_census.combinatorics import compositions

    for n in range(2, 9):
        for e in range(13):
            listed = _diagonals_for_spec(EnumSpec(n, 2, e, corank=n - 1))
            assert listed == [t for t in compositions(e, n - 1) if all(t)], (n, e)


@given(st.integers(0, 4), st.sampled_from([2, 3]))
@settings(max_examples=20, deadline=None)
def test_every_emitted_matrix_certifies(e, p):
    # emission does not re-run the certificate, so the search must hold it
    for m in enumerate_subrings(EnumSpec(n=3, p=p, e=e)):
        assert is_subring_matrix(m.hnf)
        assert m.det() == p**e
        assert m.cotype().index == p**e
        assert m.corank() <= 2
    for m in enumerate_subrings(EnumSpec(n=3, p=p, e=e, mode="naive")):
        assert is_subring_matrix(m.hnf)
    for m in enumerate_irreducible(4, p, e + 3):
        assert is_subring_matrix(m.hnf)


def test_no_duplicate_matrices():
    for mode in ("naive", "pruned"):
        ms = enumerate_subrings(EnumSpec(n=4, p=2, e=3, mode=mode))
        keys = [m.entries for m in ms]
        assert len(keys) == len(set(keys))
