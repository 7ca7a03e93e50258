import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import subring_census
from subring_census.catalog import irreducible_count
from subring_census.combinatorics import binomial
from subring_census.enumeration import (
    BudgetExceededError,
    EnumSpec,
    PruneRuleSet,
    count_g_alpha,
    enumerate_irreducible,
    enumerate_subrings,
)
from subring_census.hnf import canonical_rpstar, is_irreducible_rows, is_subring_matrix


def entries(ms):
    return [m.entries for m in ms]


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

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            EnumSpec(n=3, p=2, e=1, mode="fast")


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
            assert m.is_irreducible(2)

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
    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_naive_matches_pruned(self, n, p):
        for e in range(4):
            naive = enumerate_subrings(EnumSpec(n=n, p=p, e=e, mode="naive"))
            pruned = enumerate_subrings(EnumSpec(n=n, p=p, e=e, mode="pruned"))
            assert entries(naive) == entries(pruned)

    def test_rules_off_equals_naive(self):
        spec_off = EnumSpec(n=4, p=2, e=3, mode="pruned", rules=PruneRuleSet.none())
        naive = EnumSpec(n=4, p=2, e=3, mode="naive")
        assert entries(enumerate_subrings(spec_off)) == entries(enumerate_subrings(naive))

    def test_single_rule_toggles_preserve_output(self):
        base = entries(enumerate_subrings(EnumSpec(n=4, p=2, e=3)))
        for field in (
            "zero_one_outside_support",
            "exactly_one_one",
            "block_divisibility",
            "last_column",
            "irreducible_block",
        ):
            rules = PruneRuleSet(**{field: False})
            got = entries(enumerate_subrings(EnumSpec(n=4, p=2, e=3, rules=rules)))
            assert got == base, f"rule toggle {field} changed the output"

    def test_corank_filter_matches_posthoc(self):
        for k in (1, 2):
            pruned = enumerate_subrings(EnumSpec(n=4, p=2, e=3, corank=k))
            naive = enumerate_subrings(EnumSpec(n=4, p=2, e=3, mode="naive", corank=k))
            assert entries(pruned) == entries(naive)
            assert all(m.corank() == k for m in pruned)

    def test_irreducible_filter_matches_posthoc(self):
        pruned = enumerate_subrings(EnumSpec(n=3, p=2, e=3, irreducible_only=True))
        naive = enumerate_subrings(EnumSpec(n=3, p=2, e=3, mode="naive", irreducible_only=True))
        assert entries(pruned) == entries(naive)
        assert entries(pruned) == entries(enumerate_irreducible(3, 2, 3))


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

    def test_budget_exhaustion_under_threads(self):
        # A worker's error must reach the parent.  The run is in a child
        # process so that a hanging pool fails on the timeout instead of
        # stalling the suite.
        code = (
            "from subring_census.enumeration import BudgetExceededError, EnumSpec, "
            "enumerate_subrings\n"
            "try:\n"
            "    enumerate_subrings(EnumSpec(n=4, p=2, e=11, node_budget=30000, threads=2))\n"
            "except BudgetExceededError as exc:\n"
            "    print(exc.budget, exc.nodes > exc.budget)\n"
        )
        src = str(Path(subring_census.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["30000", "True"]


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
