import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from subring_census import counting, hnf
from subring_census.combinatorics import PRIME_TEST_BOUND
from subring_census.counting import (
    CensusRecord,
    CensusValidationError,
    CountLedger,
    IndexSplit,
    MissingCensusError,
    build_record,
    corank2_formula_coefficients,
    corank3_formula_coefficients,
    formula_h,
    lattice_prime_power_count,
    multiplicative_extend,
    multiplicative_table,
    sandwich_bounds,
    smallest_prime_factors,
)
from subring_census.enumeration import (
    ENGINE_VERSION,
    BudgetExceededError,
    EnumSpec,
    NodeBudget,
    PruneRuleSet,
    check_cell,
    enumerate_irreducible,
    enumerate_subrings,
    visit_subrings,
)
from subring_census.hnf import SubringMatrix, snf_oracle_minor_gcds


@pytest.fixture(scope="module")
def ledger():
    return CountLedger()


@st.composite
def buildable_census(draw):
    """(n, p, e, cotypes) that a CensusRecord accepts: each key is n-1
    powers of p with exponents not increasing and summing to e."""
    n = draw(st.integers(1, 6))
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    e = draw(st.integers(0, 12)) if n > 1 else 0

    def chain(cuts):
        ends = [0, *sorted(cuts), e]
        exponents = sorted((b - a for a, b in zip(ends, ends[1:])), reverse=True)
        return tuple(p**x for x in exponents)

    if n == 1:
        keys = st.just(())
    else:
        keys = st.lists(st.integers(0, e), min_size=n - 2, max_size=n - 2).map(chain)
    return n, p, e, draw(st.dictionaries(keys, st.integers(0, 10**12), max_size=8))


class TestCensus:
    def test_trivial_index(self, ledger):
        r = ledger.census(4, 3, 0)
        assert r.f_count == 1
        assert r.cotype_counts == {(1, 1, 1): 1}
        assert r.h_counts == (1, 0, 0, 0)

    def test_index_p(self, ledger):
        r = ledger.census(4, 2, 1)
        assert r.f_count == 6
        assert r.h_counts == (0, 6, 0, 0)
        assert r.cotype_counts == {(2, 1, 1): 6}

    def test_full_record(self, ledger):
        r = ledger.census(4, 2, 2)
        assert r.f_count == 13
        assert r.h_counts == (0, 6, 7, 0)
        assert r.cotype_counts == {(4, 1, 1): 6, (2, 2, 1): 7}
        assert r.g_count == 0

    def test_g_count_matches_series(self, ledger):
        from subring_census.catalog import irreducible_count

        # g is read off h[n-1]: irreducible means corank n-1
        for n, primes in ((3, (2, 3, 5)), (4, (2, 3))):
            for p in primes:
                for e in range(7):
                    r = ledger.census(n, p, e)
                    assert r.g_count == r.h_counts[n - 1] == irreducible_count(n, p, e)

    def test_h_tilde(self, ledger):
        r = ledger.census(4, 2, 2)
        assert r.h_tilde(1) == 6
        assert r.h_tilde(3) == r.f_count

    def test_checksum_round_trip(self, ledger):
        r = ledger.census(3, 2, 2)
        again = type(r).from_payload(json.loads(json.dumps(r.payload())))
        assert again.checksum() == r.checksum()
        assert again.counts_equal(r)

    @settings(max_examples=200, deadline=None)
    @given(fields=buildable_census(), strings=st.lists(st.text(), min_size=3, max_size=3))
    # keys whose string order ("16,2" < "32,1" < "8,4") is not their tuple
    # order, and provenance strings that json escapes
    @example(
        fields=(3, 2, 5, {(16, 2): 3, (8, 4): 5, (32, 1): 7}),
        strings=['qu"ote', "back\\slash", "\u00e9t\u00e9 \u2028 \U0001d4b5 \x00\n"],
    )
    def test_serialized_is_compact_sorted_json(self, fields, strings):
        record = CensusRecord(*fields, *strings)
        reference = json.dumps(record.payload(), sort_keys=True, separators=(",", ":"))
        assert record.serialized() == reference.encode()
        assert record.checksum() == hashlib.sha256(reference.encode()).hexdigest()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2, 12), st.integers(-2, 12), st.integers(-2, 12))
    def test_cell_rule_is_check_cell(self, n, p, e):
        # a record's cell is refused exactly when check_cell refuses it
        def build():
            return CensusRecord(
                n, p, e, {}, counting.RECORD_MODE, counting.RECORD_RULES, ENGINE_VERSION
            )

        try:
            check_cell(n, p, e)
        except ValueError as exc:
            with pytest.raises(CensusValidationError) as refused:
                build()
            assert str(refused.value) == f"(n={n}, p={p}, e={e}) is not a census cell: {exc}"
        else:
            assert build().f_count == 0


# (n, p, e_max): every cell e <= e_max is compared with full enumeration
DECOMPOSITION_GRID = [
    (2, 2, 8), (3, 2, 9), (3, 3, 6), (3, 5, 4), (4, 2, 9),
    (4, 3, 6), (5, 2, 6), (5, 3, 4), (6, 2, 5),
]


def full_record(n, p, e):
    matrices = enumerate_subrings(EnumSpec(n, p, e))
    return build_record(n, p, e, matrices)


def spy_on_enumeration(monkeypatch):
    """Record (spec, nodes so far) of every search census runs: a miss visits
    the irreducible blocks of size 3 and more through visit_subrings (G_2 is
    built without a search, see spy_on_blocks), a recheck calls
    enumerate_subrings."""
    calls = []

    def spy_enumerate(spec, budget):
        out = enumerate_subrings(spec, budget)
        calls.append((spec, budget.used))
        return out

    def spy_visit(spec, visit, budget):
        visit_subrings(spec, visit, budget)
        calls.append((spec, budget.used))

    monkeypatch.setattr(counting, "enumerate_subrings", spy_enumerate)
    monkeypatch.setattr(counting, "visit_subrings", spy_visit)
    return calls


def spy_on_blocks(monkeypatch):
    """Record ((m, p, j), nodes so far) of every irreducible block a census
    miss builds, G_2 included, which is built without a search; a block
    taken from the ledger's memory is not recorded."""
    calls = []
    build = CountLedger._irreducible_cotypes

    def spy(self, m, p, j, progress, budget):
        built = (m, p, j) not in self._irreducible
        out = build(self, m, p, j, progress, budget)
        if built:
            calls.append(((m, p, j), budget.used))
        return out

    monkeypatch.setattr(CountLedger, "_irreducible_cotypes", spy)
    return calls


class TestDecomposition:
    def test_matches_full_enumeration(self):
        led = CountLedger()
        cells = [(n, p, e) for n, p, top in DECOMPOSITION_GRID for e in range(top + 1)]
        assert len(cells) == 66
        for n, p, e in cells:
            record, full = led.census(n, p, e), full_record(n, p, e)
            assert record.counts_equal(full), (n, p, e)
            assert record.checksum() == full.checksum(), (n, p, e)

    def test_census_enumerates_irreducible_blocks_only(self, monkeypatch):
        calls = spy_on_enumeration(monkeypatch)
        led = CountLedger()
        led.census(5, 2, 5)
        assert calls and all(spec.corank == spec.n - 1 for spec, _ in calls)
        assert max(spec.n for spec, _ in calls) == 5
        del calls[:]
        led.census(5, 2, 5, recheck=True)
        assert [spec for spec, _ in calls] == [EnumSpec(5, 2, 5)]

    def test_budget_exhaustion_leaves_nothing_partial(self, tmp_path, monkeypatch):
        calls = spy_on_blocks(monkeypatch)
        CountLedger().census(5, 2, 6)
        totals = [nodes for _, nodes in calls]
        used = [b - a for a, b in zip([0] + totals, totals)]
        # the block builds of one census spend one budget
        assert min(used) > 0
        # every block fits the limit alone, but not all of them together
        limit = max(used)
        assert totals[-1] > limit
        cut = next(i for i, t in enumerate(totals) if t > limit)
        assert cut > 0
        keys = [key for key, _ in calls]
        led = CountLedger(tmp_path)
        with pytest.raises(BudgetExceededError):
            led.census(5, 2, 6, budget=NodeBudget(limit))
        assert list(tmp_path.iterdir()) == []
        assert CountLedger(tmp_path).cached(5, 2, 6) is None
        assert sorted(led._irreducible) == sorted(keys[:cut])
        fresh = CountLedger()
        for m, p, j in led._irreducible:
            assert led._irreducible[(m, p, j)] == fresh._irreducible_cotypes(
                m, p, j, False, NodeBudget()
            )
        record = led.census(5, 2, 6)
        full = full_record(5, 2, 6)
        assert record.counts_equal(full) and record.checksum() == full.checksum()
        assert CountLedger(tmp_path).cached(5, 2, 6).counts_equal(full)

    def test_stats(self):
        led = CountLedger()
        for e in range(6):
            led.census(4, 2, e)
        # G_2(1..5), G_3(2..5) and G_4(3..5) are each built once.  Of the
        # core censuses, C_2(d) looks up G_2(d), C_3(d) G_3(d), and C_4(d)
        # G_2(1..d-1) and G_4(d) at d >= 3, building C_2(1..d-1) as it goes;
        # C_1 looks nothing up.  So the census at 2^e, which takes C_k(e) for
        # k <= min(4, 2e), makes 2e + [e>=3] lookups at e >= 2 and one at
        # e = 1: 0 + 1 + 4 + 7 + 9 + 11 = 32 lookups, 12 of them builds.
        assert led.stats == {
            "hits": 0,
            "misses": 6,
            "rechecks": 0,
            "irreducible_built": 12,
            "irreducible_reused": 20,
        }
        led.census(4, 2, 5)
        led.census(4, 2, 3, recheck=True)
        assert led.stats == {
            "hits": 1,
            "misses": 6,
            "rechecks": 1,
            "irreducible_built": 12,
            "irreducible_reused": 20,
        }

    @pytest.mark.parametrize(
        "n, top, stats",
        [
            (3, 6, {"irreducible_built": 11, "irreducible_reused": 0}),
            (4, 8, {"irreducible_built": 21, "irreducible_reused": 56}),
        ],
    )
    def test_stats_of_a_ladder(self, n, top, stats):
        led = CountLedger()
        for e in range(top + 1):
            led.census(n, 2, e)
        assert led.stats == {"hits": 0, "misses": top + 1, "rechecks": 0, **stats}

    @pytest.mark.parametrize(
        "cell, f_count, checksum",
        [
            ((4, 2, 10), 996, "70be1617d31c4c1b8cb77318f954a5f60e47b91155d767f6ee443b87f9b77e77"),
            ((4, 3, 7), 566, "46f178ddfe2dc60b0d5c4c58397b19ca0a6da9983617ba3cacf6468874a316b0"),
            ((5, 2, 9), 6480, "6266227170d5542545e3d092352cfef99a69db0ea6e6b8925c913ab985e386d8"),
            ((6, 2, 8), 22996, "99210636af100e76c479fa76710328757f1da309deb157a3c46417de505baf07"),
            ((7, 2, 8), 129696, "d0e57a7a229dd7c8f9009db449a69c212e148daef971a838a298fcc7c3741add"),
        ],
    )
    def test_cold_census_checksum_pins(self, cell, f_count, checksum):
        # records of a cold miss, pinned as the engine wrote them before the
        # block-entry test solved in place; a faster search must not move them
        record = CountLedger().census(*cell)
        assert (record.f_count, record.checksum()) == (f_count, checksum)

    def test_shared_counter_accrues_across_calls(self):
        # a budget passed to several censuses bounds them together; a hit
        # searches nothing
        cold = NodeBudget()
        CountLedger().census(4, 2, 6, budget=cold)
        led, shared = CountLedger(), NodeBudget()
        led.census(4, 2, 6, budget=shared)
        led.census(4, 2, 6, budget=shared)
        assert shared.used == cold.used > 0
        # the nodes already used count against the limit
        CountLedger().census(4, 2, 6, budget=NodeBudget(cold.used))
        spent = NodeBudget(cold.used)
        spent.used = 1
        with pytest.raises(BudgetExceededError):
            CountLedger().census(4, 2, 6, budget=spent)

    def test_one_budget_spans_census_enumeration_and_extension(self, tmp_path):
        # each call alone, on a budget of its own
        alone = [NodeBudget() for _ in range(3)]
        multiplicative_extend(3, 50, CountLedger(), budget=alone[0])
        enumerate_subrings(EnumSpec(4, 2, 5), alone[1])
        CountLedger().census(4, 2, 6, budget=alone[2])
        used = [b.used for b in alone]
        assert min(used) > 0
        # one budget given to all three adds their nodes
        shared = NodeBudget()
        multiplicative_extend(3, 50, CountLedger(), budget=shared)
        enumerate_subrings(EnumSpec(4, 2, 5), shared)
        CountLedger().census(4, 2, 6, budget=shared)
        assert shared.used == sum(used)
        # one node short of their sum, the last search stops at the node past
        # the limit, and its census appends nothing
        limit = sum(used) - 1
        tight = NodeBudget(limit)
        multiplicative_extend(3, 50, CountLedger(), budget=tight)
        enumerate_subrings(EnumSpec(4, 2, 5), tight)
        led = CountLedger(tmp_path)
        with pytest.raises(BudgetExceededError) as err:
            led.census(4, 2, 6, budget=tight)
        assert (err.value.nodes, err.value.budget, tight.used) == (limit + 1, limit, limit + 1)
        assert list(tmp_path.iterdir()) == []
        assert led.cached(4, 2, 6) is None

    @pytest.mark.stretch
    def test_cold_z7_matches_full_enumeration(self):
        record = CountLedger().census(7, 2, 7)
        full = CountLedger().census(7, 2, 7, recheck=True)
        assert record.counts_equal(full) and record.checksum() == full.checksum()


@st.composite
def triangular_blocks(draw):
    """Upper-triangular s x s blocks, s <= 4, with positive diagonal and
    signed entries above it; prime-power diagonals give deep divisor chains."""
    s = draw(st.integers(1, 4))
    diag = st.one_of(
        st.integers(1, 400),
        st.builds(pow, st.sampled_from([2, 3]), st.integers(0, 8)),
    )
    above = st.one_of(st.integers(-200, 200), st.integers(-50, 50).map(lambda v: 4 * v))
    return [
        [draw(diag) if j == i else draw(above) if j > i else 0 for j in range(s)]
        for i in range(s)
    ]


class TestBlockCotype:
    # G_m(j) is counted at the search leaf, each cotype taken from the
    # invariant factors of the (m-1) x (m-1) block; its histogram must be that
    # of the full Smith forms, and each of those must agree with the minor-gcd
    # oracle.

    def test_matches_full_smith_form_and_minor_gcds(self):
        seen = 0
        led = CountLedger()
        for p, m_max, j_max in ((2, 6, 8), (3, 5, 5)):
            for m in range(2, m_max + 1):
                for j in range(m - 1, j_max + 1):
                    matrices = enumerate_irreducible(m, p, j)
                    full = Counter(matrix.cotype().alphas for matrix in matrices)
                    assert led._irreducible_cotypes(m, p, j, False, NodeBudget()) == full, (m, p, j)
                    for matrix in matrices:
                        oracle = snf_oracle_minor_gcds(matrix)
                        assert matrix.cotype().alphas == tuple(reversed(oracle[1:])), (
                            matrix.entries
                        )
                    seen += len(matrices)
        assert seen > 5000

    @given(triangular_blocks())
    @settings(max_examples=400, deadline=None)
    def test_divisor_forms_match_smith_form_and_minor_gcds(self, block):
        # blocks up to 4 x 4 take the written-out determinantal divisors;
        # the oracle reads only n and entries, and signed entries are no HnfMatrix
        s = len(block)
        rows = [row + [1] for row in block] + [[0] * s + [1]]
        got = counting._block_cotype(rows, block)[::-1]
        assert got == tuple(reversed(hnf.smith_normal_form(block)))
        oracle = snf_oracle_minor_gcds(SimpleNamespace(n=s, entries=block))
        assert got == tuple(reversed(oracle))

    def test_miss_takes_no_smith_form_and_recheck_one_per_matrix(self, monkeypatch):
        # the miss and its recheck must run different algorithms
        calls = [0]
        smith = hnf.smith_normal_form

        def counted(a):
            calls[0] += 1
            return smith(a)

        monkeypatch.setattr(hnf, "smith_normal_form", counted)
        led = CountLedger()
        record = led.census(5, 2, 7)
        assert calls[0] == 0 and record.g_count > 0
        led.census(5, 2, 7, recheck=True)
        assert calls[0] >= record.f_count

    def test_rejects_last_column_entry_other_than_one(self):
        # a subring matrix, but not an irreducible one
        rows = [[2, 1, 1], [0, 2, 0], [0, 0, 1]]
        with pytest.raises(CensusValidationError, match="last column"):
            counting._block_cotype(rows, [row[:2] for row in rows[:2]])

    def test_table_builds_each_cotype_once_and_checks_every_matrix(self, monkeypatch):
        built, checked = Counter(), [0]
        cotype, check = counting.Cotype, counting._structural_check

        def counted_cotype(alphas):
            built[alphas] += 1
            return cotype(alphas)

        def counted_check(entries, corank, index):
            checked[0] += 1
            return check(entries, corank, index)

        monkeypatch.setattr(counting, "Cotype", counted_cotype)
        monkeypatch.setattr(counting, "_structural_check", counted_check)
        got = CountLedger()._irreducible_cotypes(5, 2, 7, False, NodeBudget())
        assert set(built) == set(got) and set(built.values()) == {1}
        assert checked[0] == sum(got.values()) == len(enumerate_irreducible(5, 2, 7))

    def test_table_still_validates_each_cotype(self, monkeypatch):
        # (3, 2) is no divisor chain: its cotype (2, 3) must be refused
        monkeypatch.setattr(counting, "_block_invariant_factors", lambda block: (3, 2))
        with pytest.raises(ValueError, match="divisible"):
            CountLedger().census(3, 2, 2)

    @pytest.mark.parametrize("cell", [(6, 2, 8), (5, 3, 6)])
    def test_recheck_agrees(self, cell):
        led = CountLedger()
        record = led.census(*cell)
        full = led.census(*cell, recheck=True)
        assert full.counts_equal(record) and full.checksum() == record.checksum()


class TestBuiltRank2Block:
    # G_2(j) is built as its one member, Z 1 + p^j Z^2, and not searched: it
    # must give what the search gives, in cotypes, in nodes spent from a
    # shared budget, in its --progress line and at the budget's limit

    @pytest.mark.parametrize("p", [2, 3, 5, 101, 19997])
    def test_matches_the_search(self, p, capsys):
        led = CountLedger()
        for j in range(1, 13):
            searched, built = NodeBudget(), NodeBudget()
            # budgets already in use, as in a census that built other blocks
            searched.used = built.used = 7 * j
            found = Counter()

            def count(rows, block):
                found[SubringMatrix(tuple(map(tuple, rows))).cotype().alphas] += 1

            visit_subrings(EnumSpec(2, p, j, corank=1, progress=True), count, searched)
            line = capsys.readouterr().err
            assert line == f"Z^2 at {p}^{j}: diagonals 1/1, {7 * j + 1} nodes\n"
            got = led._irreducible_cotypes(2, p, j, True, built)
            assert capsys.readouterr().err == line
            assert got == found == {(p**j,): 1}
            assert built.used == searched.used == 7 * j + 1

            searched, built = NodeBudget(7 * j), NodeBudget(7 * j)
            searched.used = built.used = 7 * j
            with pytest.raises(BudgetExceededError) as search_error:
                visit_subrings(EnumSpec(2, p, j, corank=1), count, searched)
            fresh = CountLedger()
            with pytest.raises(BudgetExceededError) as build_error:
                fresh._irreducible_cotypes(2, p, j, False, built)
            assert build_error.value.nodes == search_error.value.nodes == 7 * j + 1
            assert fresh._irreducible == {} and fresh.stats["irreducible_built"] == 0
        assert led.stats["irreducible_built"] == 12


class TestStructuralCheck:
    def test_wrong_index_raises(self):
        matrices = enumerate_subrings(EnumSpec(3, 2, 3))
        with pytest.raises(CensusValidationError, match="determinant"):
            build_record(3, 2, 4, matrices)

    def test_accepts_subring_matrix(self):
        counting._structural_check([[2, 0, 1], [0, 1, 0], [0, 0, 1]], 1, 2)

    # one crafted matrix per condition, each passing the conditions before it;
    # the last breaks two, and the row checked first decides the message
    @pytest.mark.parametrize(
        "entries, corank, index, message",
        [
            ([[2, 0, 1], [0, 1, 0], [0, 0, 1]], 1, 4, "determinant is not 4"),
            ([[2, 0, 1], [0, 1, 0], [0, 0, 1]], 2, 2, "corank != diagonal support"),
            ([[2, 0, 1], [0, 1, 2], [0, 0, 1]], 1, 2, "last column entry outside"),
            (
                [[2, 3, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                1, 2, "support row has entry outside",
            ),
            (
                [[2, 1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                1, 2, "support row without exactly one 1",
            ),
            (
                [[2, 2, 0, 1], [0, 2, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                2, 4, "last-column pair rule violated",
            ),
            (
                [[2, 0, 0, 0], [0, 2, 3, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
                2, 4, "support row without exactly one 1",
            ),
        ],
    )
    def test_each_condition_rejects(self, entries, corank, index, message):
        with pytest.raises(CensusValidationError, match=message):
            counting._structural_check(entries, corank, index)

    def test_no_prime_power_search_per_matrix(self, monkeypatch):
        # the index p^e is known, so no determinant is factored
        def refuse(m):
            raise AssertionError("prime-power search")

        monkeypatch.setattr(hnf, "_prime_power_base", refuse)
        assert CountLedger().census(4, 2, 5).counts_equal(full_record(4, 2, 5))


def ledger_line(record):
    """One log line as the ledger writes it."""
    item = {"checksum": record.checksum(), "record": record.payload()}
    return json.dumps(item, sort_keys=True, separators=(",", ":")) + "\n"


def changed_line(**changes):
    """A log line of the (3, 2, 1) record with changed fields, checksummed
    over json's compact sorted-key bytes whatever their types."""
    payload = {
        "n": 3, "p": 2, "e": 1, "f": 3, "g": 0, "h": [0, 3, 0], "cotypes": {"2,1": 3},
        "mode": "pruned", "rules": PruneRuleSet().fingerprint(), "engine": ENGINE_VERSION,
        **changes,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return json.dumps({"checksum": hashlib.sha256(body).hexdigest(), "record": payload})


DISAGREE = "stored f, g and h disagree with the cotype census"


def log_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def append_cells(directory, cells):
    led = CountLedger(directory)
    for n, p, e in cells:
        led.census(n, p, e)


class TestLedgerPersistence:
    @pytest.mark.parametrize(
        "cell",
        [(3, 4, 0), (3, 1, 0), (3, 6, 0), (3, 2, -2), (0, 2, 1)]
        + [(3, 2.0, 2), (3.0, 2, 2), (3, 2, 2.0), (True, 2, 1), (3, 2, False)],
    )
    def test_invalid_cell_rejected_before_lookup(self, tmp_path, cell):
        led = CountLedger(tmp_path)
        with pytest.raises(ValueError):
            led.census(*cell)
        assert list(tmp_path.iterdir()) == []
        assert led.stats["misses"] == 0

    @pytest.mark.parametrize("kwargs", [{"limit": -5}, {"limit": 0}])
    @pytest.mark.parametrize("kept", [False, True], ids=["miss", "hit"])
    def test_invalid_search_settings_rejected_before_lookup(self, tmp_path, kwargs, kept):
        # the budget is checked where it is made, before census can look up
        led = CountLedger(tmp_path)
        if kept:
            led.census(3, 2, 0)
        stats = dict(led.stats)
        with pytest.raises(ValueError):
            led.census(3, 2, 0, budget=NodeBudget(**kwargs))
        assert led.stats == stats
        assert len(list(tmp_path.iterdir())) == kept

    @pytest.mark.parametrize(
        "cell", [(3, 4, 0), (3, 2, -2), (0, 2, 1), (3, 2.0, 2), (True, 2, 1)]
    )
    def test_invalid_cell_rejected_by_cached(self, tmp_path, cell):
        with pytest.raises(ValueError):
            CountLedger(tmp_path).cached(*cell)

    def test_cache_and_reload(self, tmp_path):
        led = CountLedger(tmp_path)
        r1 = led.census(3, 2, 3)
        led2 = CountLedger(tmp_path)
        r2 = led2.cached(3, 2, 3)
        assert r2 is not None and r2.counts_equal(r1)
        files = list(tmp_path.glob("census-n3.jsonl"))
        assert len(files) == 1
        assert files[0].read_text() == ledger_line(r1)
        # cotype keys whose string order is not their tuple order, such as
        # "16,4" < "64,1" < "8,8" at 2^6 and "243,3" < "27,27" < "81,9" at 3^6
        cells = [(3, 2, e) for e in range(7)] + [(3, 3, e) for e in range(7)]
        records = [led.census(*cell) for cell in cells]
        appended = [r for r in records if r is not r1]  # (3, 2, 3) is a hit
        assert files[0].read_text() == "".join(ledger_line(r) for r in [r1] + appended)
        fresh = CountLedger(tmp_path)
        assert [fresh.cached(*cell) for cell in cells] == records

    def test_recheck_passes_on_fresh_cache(self, tmp_path):
        led = CountLedger(tmp_path)
        led.census(3, 2, 2)
        led.census(3, 2, 2, recheck=True)

    def test_corrupted_checksum_detected(self, tmp_path):
        led = CountLedger(tmp_path)
        led.census(3, 2, 1)
        path = tmp_path / "census-n3.jsonl"
        [item] = log_lines(path)
        item["record"]["f"] += 1
        path.write_text(json.dumps(item) + "\n")
        with pytest.raises(ValueError):
            CountLedger(tmp_path).cached(3, 2, 1)

    def test_stale_cache_recheck_mismatch(self, tmp_path):
        led = CountLedger(tmp_path)
        record = led.census(3, 2, 1)
        tampered = record.payload()
        tampered["f"] = 99
        tampered["h"] = [0, 99, 0]
        tampered["cotypes"] = {"2,1": 99}
        bad = type(record).from_payload(tampered)
        (tmp_path / "census-n3.jsonl").write_text(ledger_line(bad))
        fresh = CountLedger(tmp_path)
        with pytest.raises(CensusValidationError):
            fresh.census(3, 2, 1, recheck=True)

    def test_h_counts_read_from_records_on_disk(self, tmp_path, monkeypatch):
        expected = CountLedger(tmp_path).census(4, 2, 3).h_counts[2]

        def no_enumeration(*args, **kwargs):
            raise AssertionError("census enumerated a record that is on disk")

        monkeypatch.setattr(counting, "enumerate_subrings", no_enumeration)
        monkeypatch.setattr(counting, "visit_subrings", no_enumeration)
        assert CountLedger(tmp_path).census(4, 2, 3).h_counts[2] == expected

    def test_record_of_another_engine_is_a_miss(self, tmp_path):
        record = CountLedger(tmp_path).census(3, 2, 2)
        path = tmp_path / "census-n3.jsonl"
        payload = record.payload()
        payload["engine"] = "0.0.0-stale"
        stale = type(record).from_payload(payload)
        path.write_text(ledger_line(stale))
        fresh = CountLedger(tmp_path)
        assert fresh.cached(3, 2, 2) is None
        with pytest.raises(MissingCensusError) as err:
            multiplicative_extend(3, 4, fresh, compute=False)
        assert (3, 2, 2) in err.value.missing
        again = fresh.census(3, 2, 2)
        assert again.engine_version == record.engine_version and again.counts_equal(record)
        on_disk = [item["record"] for item in log_lines(path)]
        assert [r["engine"] for r in on_disk if r["e"] == 2][-1] == record.engine_version
        assert CountLedger(tmp_path).cached(3, 2, 2).counts_equal(record)

    def test_record_of_other_rules_is_a_miss(self, tmp_path):
        record = CountLedger(tmp_path).census(3, 2, 1)
        payload = record.payload()
        payload["rules"] = "rules-v1:00000"
        other = type(record).from_payload(payload)
        (tmp_path / "census-n3.jsonl").write_text(ledger_line(other))
        assert CountLedger(tmp_path).cached(3, 2, 1) is None

    def test_later_line_replaces_earlier(self, tmp_path):
        record = CountLedger(tmp_path).census(3, 2, 1)
        other = record.payload()
        other["f"], other["h"], other["cotypes"] = 5, [0, 5, 0], {"2,1": 5}
        other = type(record).from_payload(other)
        stale = record.payload()
        stale["engine"] = "0.0.0-stale"
        stale = type(record).from_payload(stale)
        path = tmp_path / "census-n3.jsonl"
        path.write_text(ledger_line(other) + ledger_line(record))
        assert CountLedger(tmp_path).cached(3, 2, 1) == record
        path.write_text(ledger_line(record) + ledger_line(other))
        assert CountLedger(tmp_path).cached(3, 2, 1) == other
        # a later line of another engine does not hide a current one
        path.write_text(ledger_line(record) + ledger_line(stale))
        assert CountLedger(tmp_path).cached(3, 2, 1) == record

    def test_concurrent_processes_lose_nothing(self, tmp_path):
        every = [(3, 2, e) for e in range(12)] + [(3, 3, e) for e in range(8)]
        # more writers than the cores of a two-core machine, each with cells of its own
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=append_cells, args=(tmp_path, every[k::3])) for k in range(3)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
            assert w.exitcode == 0
        assert len(log_lines(tmp_path / "census-n3.jsonl")) == 20
        fresh, check = CountLedger(tmp_path), CountLedger()
        for n, p, e in every:
            assert fresh.cached(n, p, e) == check.census(n, p, e), (n, p, e)

    def test_torn_final_line_is_a_miss(self, tmp_path):
        led = CountLedger(tmp_path)
        r1 = led.census(3, 2, 1)
        r2 = CountLedger().census(3, 2, 2)
        path = tmp_path / "census-n3.jsonl"
        torn = ledger_line(r2)[:-20]
        with path.open("a") as fh:
            fh.write(torn)
        fresh = CountLedger(tmp_path)
        assert fresh.cached(3, 2, 2) is None
        assert fresh.cached(3, 2, 1) == r1
        assert fresh.census(3, 2, 2) == r2
        assert path.read_text() == ledger_line(r1) + ledger_line(r2)
        again = CountLedger(tmp_path)
        assert again.cached(3, 2, 1) == r1 and again.cached(3, 2, 2) == r2

    def test_append_reads_the_last_byte_only_past_what_it_parsed(self, tmp_path, monkeypatch):
        pread = counting.os.pread
        reads = []

        def spy(fd, length, offset):
            reads.append((length, offset))
            return pread(fd, length, offset)

        monkeypatch.setattr(counting.os, "pread", spy)
        led, other = CountLedger(tmp_path), CountLedger()
        # a log that holds only what this ledger parsed or wrote ends at a newline
        r1, r2 = led.census(3, 2, 1), led.census(3, 2, 2)
        assert reads == []
        # another writer's complete line, then a torn tail, past this ledger's offset
        r3, r4, r5 = other.census(3, 2, 3), other.census(3, 2, 4), other.census(3, 2, 5)
        path = tmp_path / "census-n3.jsonl"
        with path.open("a") as fh:
            fh.write(ledger_line(r3) + ledger_line(r4)[:-20])
        assert led.census(3, 2, 3) == r3  # read from the log; the tail is left
        assert reads == []
        assert led.census(3, 2, 5) == r5
        assert reads and path.read_text() == "".join(map(ledger_line, (r1, r2, r3, r5)))
        fresh = CountLedger(tmp_path)
        assert [fresh.cached(3, 2, e) for e in range(1, 6)] == [r1, r2, r3, None, r5]

    def test_cold_extend_log_bytes_pin(self, tmp_path):
        # the log of a cold extension, byte for byte: a cheaper record codec
        # or append must write exactly these bytes
        multiplicative_extend(3, 2000, CountLedger(tmp_path), coranks=(1, 2))
        digest = hashlib.sha256((tmp_path / "census-n3.jsonl").read_bytes()).hexdigest()
        assert digest == "8a795c3dc3bd372b1a70874261a3f2541d3cce0d39644612e3dcebe630f661af"

    def test_reads_lines_another_instance_appended(self, tmp_path, monkeypatch):
        reader, writer = CountLedger(tmp_path), CountLedger(tmp_path)
        writer.census(3, 2, 1)
        assert reader.cached(3, 2, 1) is not None
        assert reader.cached(3, 2, 2) is None
        record = writer.census(3, 2, 2)
        # the reader's own append lands after a line it has not read yet
        reader._store(CountLedger().census(3, 2, 3))
        calls = spy_on_enumeration(monkeypatch)
        assert reader.census(3, 2, 2) == record
        assert calls == [] and reader.stats["hits"] == 1

    def test_recheck_of_cached_record_appends_nothing(self, tmp_path):
        led = CountLedger(tmp_path)
        record = led.census(3, 2, 4)
        path = tmp_path / "census-n3.jsonl"
        size = path.stat().st_size
        assert led.census(3, 2, 4, recheck=True) == record
        assert CountLedger(tmp_path).census(3, 2, 4, recheck=True) == record
        assert path.stat().st_size == size

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("{not json", "not JSON"),
            ("[1, 2]", "not an object"),
            ('{"record": {}}', "not an object with record and checksum"),
            ('{"checksum": "00"}', "not an object with record and checksum"),
            ('{"checksum": "00", "record": {"n": 3}}', "malformed record"),
            # checksummed over json's bytes of the mistyped fields
            pytest.param(changed_line(h=["a", "b", "c"]), "malformed record", id="h-strings"),
            pytest.param(changed_line(h=3), "malformed record", id="h-int"),
            pytest.param(changed_line(f=3.0), "malformed record", id="f-float"),
            pytest.param(changed_line(e=True), "malformed record", id="e-bool"),
            pytest.param(changed_line(cotypes={"2,1": "3"}), "malformed record", id="count-str"),
            pytest.param(changed_line(cotypes={"2,x": 3}), "malformed record", id="key-not-int"),
            pytest.param(changed_line(mode=1), "malformed record", id="mode-int"),
            pytest.param(changed_line(engine=None), "malformed record", id="engine-null"),
            pytest.param(changed_line(g=999), DISAGREE, id="g-999"),
            pytest.param(changed_line(h=[0, 3, 0, 0]), DISAGREE, id="h-too-long"),
            pytest.param(changed_line(h=[3, 0]), DISAGREE, id="h-too-short"),
            # the true (3, 2, 4) cotypes under h = (0, 4, 6) and g = 6, not
            # (0, 3, 7) and 7: the counts sum to f, and each cotype count is
            # at most its corank's stored h
            pytest.param(
                changed_line(
                    e=4, f=10, g=6, h=[0, 4, 6], cotypes={"4,4": 1, "8,2": 6, "16,1": 3}
                ),
                DISAGREE,
                id="h-moved-between-coranks",
            ),
            pytest.param(
                changed_line(cotypes={"2,1,1": 3}), "cotype .* does not have n-1", id="key-too-long"
            ),
            pytest.param(
                changed_line(cotypes={"2": 3}), "cotype .* does not have n-1", id="key-too-short"
            ),
            # keys that are not an invariant-factor chain: the first two have
            # product 2 (the first would serve h~_0 = 3), and the last is
            # rejected as a chain before its product is checked
            pytest.param(
                changed_line(cotypes={"-2,-1": 3}, h=[3, 0, 0]),
                r"cotype \(-2, -1\) is not a chain of positive factors",
                id="key-negative",
            ),
            pytest.param(
                changed_line(cotypes={"1,2": 3}),
                r"cotype \(1, 2\) is not a chain of positive factors, each divisible by the next",
                id="key-not-a-chain",
            ),
            pytest.param(
                changed_line(cotypes={"3,2": 3}),
                r"cotype \(3, 2\) is not a chain of positive factors",
                id="key-not-dividing",
            ),
            # dividing out p = 1 would not end
            pytest.param(
                changed_line(p=1), r"\(n=3, p=1, e=1\) is not a census cell", id="p-one"
            ),
            # a power of p = 4 with e = 1: the chain rule holds, the cell rule does not
            pytest.param(
                changed_line(p=4, cotypes={"4,1": 3}),
                r"\(n=3, p=4, e=1\) is not a census cell",
                id="p-composite",
            ),
            # a chain whose exponents of 2 sum to e, but 6 is not a power of 2
            pytest.param(
                changed_line(e=2, g=3, h=[0, 0, 3], cotypes={"6,2": 3}),
                "cotype index does not match p",
                id="key-not-powers-of-p",
            ),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line, problem):
        record = CountLedger(tmp_path).census(3, 2, 1)
        path = tmp_path / "census-n3.jsonl"
        path.write_text(ledger_line(record) + line + "\n")
        with pytest.raises(ValueError, match=f"census-n3.jsonl:2: {problem}"):
            CountLedger(tmp_path).cached(3, 2, 2)

    def test_huge_exponent_fails_fast(self, tmp_path):
        # a short line whose e would make p^e megabytes long is rejected
        # without building p^e
        record = CountLedger(tmp_path).census(3, 2, 1)
        path = tmp_path / "census-n3.jsonl"
        bad = changed_line(p=3, e=10**7, cotypes={"3,1": 3})
        path.write_text(ledger_line(record) + bad + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"census-n3.jsonl:2: cotype index does not"):
                CountLedger(tmp_path).cached(3, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_prime_line_loads_at_once(self, tmp_path):
        # a 19-digit prime p is proven by a few modular powers, not by
        # sqrt(p) trial divisions; a p at the bound of that proof is refused
        record = CountLedger(tmp_path).census(3, 2, 1)
        path = tmp_path / "census-n3.jsonl"

        def write(p):
            path.write_text(ledger_line(record) + changed_line(p=p, cotypes={f"{p},1": 3}) + "\n")

        write(2**61 - 1)
        assert CountLedger(tmp_path).cached(3, 2**61 - 1, 1).f_count == 3
        write(PRIME_TEST_BOUND)
        with pytest.raises(ValueError, match=r"census-n3.jsonl:2: \(n=3, p=\d+, e=1\) is not"):
            CountLedger(tmp_path).cached(3, 2, 2)

    def test_rank1_log_reloads(self, tmp_path):
        # the one cotype key of Z^1, the empty chain, is written as ""
        records = [CountLedger(tmp_path).census(1, 2, e) for e in range(3)]
        fresh = CountLedger(tmp_path)
        assert [fresh.cached(1, 2, e) for e in range(3)] == records
        assert [r.f_count for r in records] == [1, 0, 0]

    def test_record_of_another_n_is_rejected(self, tmp_path):
        CountLedger(tmp_path).census(3, 2, 1)
        CountLedger(tmp_path).census(4, 2, 2)
        n3, n4 = tmp_path / "census-n3.jsonl", tmp_path / "census-n4.jsonl"
        with n3.open("a") as fh:
            fh.write(n4.read_text())
        with pytest.raises(ValueError, match="census-n3.jsonl:2: record of n=4 in the log of n=3"):
            CountLedger(tmp_path).cached(3, 2, 2)
        assert CountLedger(tmp_path).cached(4, 2, 2).f_count == 13


def reference_from_payload(payload):
    """The record of a payload, each field read and tested in turn through
    `_int` and `_str`, in `CensusRecord.from_payload`'s order."""
    cotypes = {}
    for key, count in payload["cotypes"].items():
        alphas = tuple(map(int, key.split(","))) if key else ()
        counting._int(count, "cotype count")
        cotypes[alphas] = count
    n, p, e, f, g = [counting._int(payload[k], k) for k in ("n", "p", "e", "f", "g")]
    h = tuple(payload["h"])
    for v in h:
        counting._int(v, "h entry")
    mode, rules, engine = [counting._str(payload[k], k) for k in ("mode", "rules", "engine")]
    if len(h) == n:
        record = CensusRecord(n, p, e, cotypes, mode, rules, engine)
        if (f, g, h) == (record.f_count, record.g_count, record.h_counts):
            return record
    raise CensusValidationError(DISAGREE)


def reference_parse_line(where, line):
    """The verified record of a log line by json.loads on its bytes, the
    payload read by `reference_from_payload` and the checksum of the
    record's canonical bytes: the oracle of `CountLedger._parse_line`."""
    try:
        item = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{where}: not JSON ({exc})") from None
    if not isinstance(item, dict) or not {"record", "checksum"} <= item.keys():
        raise ValueError(f"{where}: not an object with record and checksum")
    try:
        record = reference_from_payload(item["record"])
    except CensusValidationError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{where}: malformed record ({exc!r})") from None
    if record.checksum() != item["checksum"]:
        raise ValueError(f"{where}: checksum mismatch at e={record.e}")
    return record


def mutated_lines(line):
    """Variants of one log line: the same record in other JSON spellings,
    and lines that are bad UTF-8, torn, or whose fields changed."""
    item = json.loads(line)
    record = item["record"]
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    yield line
    yield b"  " + line + b" \t"
    yield json.dumps(item).encode()  # json's default spacing
    yield json.dumps(item, indent=1).replace("\n", " ").encode()
    reordered = {"record": dict(reversed(record.items())), "checksum": item["checksum"]}
    yield json.dumps(reordered).encode()
    yield json.dumps({**item, "record": {**record, "extra": [1]}, "note": None}).encode()
    for spell in ("0{}", "+{}", " {}"):
        keys = {
            ",".join(spell.format(a) for a in k.split(",")): c
            for k, c in record["cotypes"].items()
        }
        yield json.dumps({**item, "record": {**record, "cotypes": keys}}).encode()
    # a checksum of the line's own bytes is not the canonical one
    yield json.dumps({**item, "checksum": hashlib.sha256(line).hexdigest()}).encode()
    yield json.dumps({**item, "checksum": hashlib.sha256(body).hexdigest().upper()}).encode()
    for raw in (
        b"pr\xffuned", b"pr\xc3", b"pr\xed\xa0\x80uned", b"pr\xc3\xa9uned", b"pr\\u00e9uned"
    ):
        yield line.replace(b"pruned", raw)
    accented = {**record, "mode": "pr\u00e9uned \ud800"}
    digest = hashlib.sha256(json.dumps(accented, sort_keys=True, separators=(",", ":")).encode())
    spelled = json.dumps({"checksum": digest.hexdigest(), "record": accented}, ensure_ascii=False)
    yield spelled.encode("utf-8", "surrogatepass")
    for cut in (1, len(line) // 2, len(line) - 1):
        yield line[:cut]
    yield line + b"}"
    yield line.replace(b'"h":[', b'"h":[0,')
    yield line.replace(b'"n":3', b'"n":3.0')
    # two faults: the field tested first names the refusal
    yield line.replace(b'"n":3', b'"n":3.0').replace(b'"pruned"', b"1")
    yield line.replace(b'"engine":', b'"engine_":').replace(b'"h":[', b'"h":[true,')
    without_rules = {k: v for k, v in record.items() if k != "rules"}
    yield json.dumps({**item, "record": {**without_rules, "e": True}}).encode()


def parse_outcome(parse, line):
    try:
        record = parse(line)
    except ValueError as exc:
        return "refused", str(exc)
    return record, record.checksum(), (record.h_counts, record.f_count, record.g_count)


def extend_to_2000(directory):
    multiplicative_extend(3, 2000, CountLedger(directory), coranks=(1, 2))


def spy_on_walk(monkeypatch):
    """Record (record, nodes used after it, whether it searched) of every
    census call; a census searched when it called visit_subrings."""
    searches = spy_on_enumeration(monkeypatch)
    census = CountLedger.census
    calls = []

    def spy(self, n, p, e, budget=None, **kwargs):
        before = len(searches)
        record = census(self, n, p, e, budget=budget, **kwargs)
        calls.append((record, budget.used, len(searches) > before))
        return record

    monkeypatch.setattr(CountLedger, "census", spy)
    return calls


class TestParseEquivalence:
    def test_parse_line_matches_the_json_loads_reference(self, tmp_path):
        # every line of a cold extension's log, and its variants, gives an
        # equal record with an equal checksum, or the same refusal
        extend_to_2000(tmp_path)
        lines = (tmp_path / "census-n3.jsonl").read_bytes().splitlines()
        ledger = CountLedger()
        outcomes = Counter()
        for lineno, line in enumerate(lines, start=1):
            for variant in mutated_lines(line):
                got = parse_outcome(lambda b: ledger._parse_line("log", lineno, b), variant)
                want = parse_outcome(lambda b: reference_parse_line(f"log:{lineno}", b), variant)
                assert got == want, variant
                outcomes[got[0] == "refused"] += 1
        assert len(lines) == 333 and outcomes[True] > 4000 and outcomes[False] > 3000

    def test_a_line_behind_a_byte_order_mark_is_refused(self, tmp_path):
        # the lines are UTF-8 as the ledger writes them: a byte order mark,
        # which json.loads on bytes would skip, makes the line not JSON
        record = CountLedger(tmp_path).census(3, 2, 1)
        path = tmp_path / "census-n3.jsonl"
        line = ledger_line(record).encode()
        path.write_bytes(line + b"\xef\xbb\xbf" + line)
        with pytest.raises(ValueError, match="census-n3.jsonl:2: not JSON"):
            CountLedger(tmp_path).cached(3, 2, 2)


class TestRecordLayout:
    FIELDS = (
        "n", "p", "e", "cotype_counts", "mode", "rules", "engine_version",
        "h_counts", "f_count", "g_count",
    )

    def test_fields_keep_their_order(self):
        layout = [(f.name, f.init, f.compare) for f in dataclasses.fields(CensusRecord)]
        assert layout == [(name, i < 7, i < 7) for i, name in enumerate(self.FIELDS)]
        assert CensusRecord.__slots__ == self.FIELDS

    def test_no_field_can_be_assigned(self):
        record = CountLedger().census(3, 2, 2)
        assert not hasattr(record, "__dict__")
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        # nor is there room for another attribute (CPython 3.11's frozen
        # slots dataclass raises TypeError here, later ones AttributeError)
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1
        assert record == CountLedger().census(3, 2, 2)

    def test_equality_compares_the_seven_given_fields(self):
        led = CountLedger()
        record = led.census(3, 2, 2)
        twin = CensusRecord(3, 2, 2, dict(record.cotype_counts), *record_strings(record))
        assert twin == record and twin is not record
        # the computed fields take no part
        object.__setattr__(twin, "f_count", -1)
        object.__setattr__(twin, "h_counts", ())
        assert twin == record
        others = [led.census(3, 3, 2), led.census(4, 2, 2), led.census(3, 2, 3)] + [
            dataclasses.replace(record, **change)
            for change in (
                {"cotype_counts": {**record.cotype_counts, (4, 1): 4}},
                {"mode": "naive"},
                {"rules": "rules-v1:00000"},
                {"engine_version": "0.0.9"},
            )
        ]
        assert all(other != record for other in others)

    def test_cold_and_replayed_records_are_equal(self, tmp_path):
        cold, warm = CountLedger(tmp_path), CountLedger(tmp_path)
        multiplicative_extend(3, 2000, cold, coranks=(1, 2))
        multiplicative_extend(3, 2000, warm, coranks=(1, 2), compute=False)
        assert len(cold._records) == 333 and warm._records.keys() == cold._records.keys()
        for key, record in cold._records.items():
            again = warm._records[key]
            assert again is not record and again == record
            assert again.checksum() == record.checksum()
            assert dataclasses.astuple(again) == dataclasses.astuple(record)


def record_strings(record):
    return record.mode, record.rules, record.engine_version


class TestHeldLines:
    """An extension walk holds the lines of censuses that ran no search and
    writes them with the next census that searches, or when the walk ends."""

    def test_a_census_that_searched_leaves_every_stored_line_on_disk(
        self, tmp_path, monkeypatch
    ):
        calls = spy_on_walk(monkeypatch)
        path = tmp_path / "census-n3.jsonl"
        spied, logs = CountLedger.census, []

        def logged(self, *args, **kwargs):
            record = spied(self, *args, **kwargs)
            logs.append(path.read_text() if path.exists() else "")
            return record

        writer, writes = CountLedger._append, []

        def counted(self, n, records):
            writes.append(len(records))
            writer(self, n, records)

        monkeypatch.setattr(CountLedger, "census", logged)
        monkeypatch.setattr(CountLedger, "_append", counted)
        led = CountLedger(tmp_path)
        multiplicative_extend(3, 2000, led, coranks=(1, 2), budget=NodeBudget())
        lines = [ledger_line(record) for record, _, _ in calls]
        searched = [i for i, (_, _, search) in enumerate(calls) if search]
        assert len(calls) == len(IndexSplit.of(2000).prime_powers)
        assert 0 < len(searched) < len(calls) // 10
        for i in searched:
            assert logs[i] == "".join(lines[: i + 1]), calls[i][0]
        # lines are held between searches, and the walk's end writes the rest
        assert any(len(logs[i]) < len("".join(lines[: i + 1])) for i in range(len(calls)))
        assert path.read_text() == "".join(lines)
        # one write per census that searched, and one at the end of the walk
        assert len(writes) == len(searched) + 1 and sum(writes) == len(calls)

    @pytest.mark.parametrize("stop", ["built", "searched"])
    def test_budget_stop_mid_walk_keeps_every_finished_line(self, tmp_path, monkeypatch, stop):
        calls = spy_on_walk(monkeypatch)
        multiplicative_extend(3, 300, CountLedger(tmp_path / "full"), budget=NodeBudget())
        full = (tmp_path / "full" / "census-n3.jsonl").read_text().splitlines(keepends=True)
        assert full == [ledger_line(record) for record, _, _ in calls]
        # the last census that spends nodes, by a search or by building G_2(p),
        # after one whose line was held
        i = max(
            i for i in range(1, len(calls))
            if calls[i][2] == (stop == "searched") and not calls[i - 1][2]
            and calls[i][1] > calls[i - 1][1]
        )
        # a budget that the nodes of calls[:i] use up: census i raises, and the
        # log holds the lines of every census before it, as when each was
        # appended at once
        with pytest.raises(BudgetExceededError):
            multiplicative_extend(3, 300, CountLedger(tmp_path), budget=NodeBudget(calls[i - 1][1]))
        assert (tmp_path / "census-n3.jsonl").read_text() == "".join(full[:i])
        fresh = CountLedger(tmp_path)
        records = [record for record, _, _ in calls]
        assert [fresh.cached(r.n, r.p, r.e) for r in records[:i]] == records[:i]
        assert fresh.cached(records[i].n, records[i].p, records[i].e) is None

    def test_concurrent_extensions_write_whole_equal_lines(self, tmp_path):
        single = tmp_path / "single"
        extend_to_2000(single)
        shared = tmp_path / "shared"
        ctx = multiprocessing.get_context("spawn")
        workers = [ctx.Process(target=extend_to_2000, args=(shared,)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(120)
            assert w.exitcode == 0
        # every line is one of the single run's: a process may rebuild a
        # record whose line the other still holds, and append an equal line
        lines = (shared / "census-n3.jsonl").read_text().splitlines()
        assert set(lines) == set((single / "census-n3.jsonl").read_text().splitlines())
        got, want = (
            multiplicative_extend(3, 2000, CountLedger(d), coranks=(1, 2), compute=False)
            for d in (shared, single)
        )
        assert (got.f, got.h_tilde, got.lattice) == (want.f, want.h_tilde, want.lattice)


class TestClosedForms:
    def test_cocyclic(self):
        assert formula_h(5, 1, 2, 3) == 10
        assert formula_h(6, 1, 3, 6) == 15

    def test_corank2(self):
        assert formula_h(4, 2, 2, 2) == 7
        assert formula_h(4, 2, 3, 2) == 7
        a, b = corank2_formula_coefficients(4)
        assert (a, b) == (4, 3)
        assert corank2_formula_coefficients(5) == (13, 12)

    def test_corank3(self):
        assert formula_h(4, 3, 2, 3) == 1
        c, d = corank3_formula_coefficients(4)
        assert (c, d) == (1, 0)
        assert corank3_formula_coefficients(6) == (25, 65)

    def test_corank2_beyond_rank4(self):
        # h_{n,2}(p^e) = C(n,3) g_3(p^e) + 3 C(n,4) (e-1), worked by hand with
        # g_3(p^2) = 1 and g_3(p^3) = p + 1
        assert formula_h(5, 2, 2, 3) == 10 * 3 + 15 * 2 == 60
        assert formula_h(5, 2, 3, 3) == 10 * 4 + 15 * 2 == 70
        assert formula_h(6, 2, 3, 2) == 20 * 1 + 45 * 1 == 65

    def test_corank3_beyond_rank4(self):
        # h_{n,3}(p^e) = C(n,4) g_4(p^e) + 10 C(n,5) sum_{j=2}^{e-1} g_3(p^j)
        #              + 15 C(n,6) C(e-1,2), worked by hand with g_4(p^3) = 1,
        # g_4(2^4) = 7, g_3(2^2) = 1 and g_3(2^3) = 3
        assert formula_h(5, 3, 2, 3) == 5 * 1 + 10 * 1 == 15
        assert formula_h(6, 3, 2, 3) == 15 * 1 + 60 * 1 + 15 * 1 == 90
        assert formula_h(6, 3, 2, 4) == 15 * 7 + 60 * (1 + 3) + 15 * 3 == 390

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            formula_h(4, 4, 2, 4)
        with pytest.raises(ValueError):
            formula_h(2, 2, 2, 3)
        with pytest.raises(ValueError):
            formula_h(4, 2, 2, 1)
        with pytest.raises(ValueError):
            formula_h(4, 3, 2, 2)

    @pytest.mark.parametrize("n", [7, 12, 40, 300, 1500])
    def test_large_n_censuses_match_closed_forms(self, n):
        # the core recursion is at most e + 1 deep whatever n is; h_1 = C(n, 2)
        # and formula_h read g_3 and g_4 from the catalog, not the recursion
        led = CountLedger()
        for p in (2, 3):
            for e in range(1, 6):
                h = led.census(n, p, e).h_counts
                assert h[1] == math.comb(n, 2)
                for k in range(2, min(e, 3) + 1):
                    assert h[k] == formula_h(n, k, p, e)

    def test_closed_forms_match_enumeration_through_rank4(self, ledger):
        # formula_h and the displayed forms coincide for n <= 4, and both agree
        # with enumeration here; the corank-formulas suite records that the
        # displayed forms are refuted from n = 5 on
        for p in (2, 3):
            for e in range(2, 5):
                assert ledger.census(4, p, e).h_counts[2] == formula_h(4, 2, p, e)
            for e in range(3, 5):
                assert ledger.census(4, p, e).h_counts[3] == formula_h(4, 3, p, e)

    def test_sandwich(self, ledger):
        for (n, k, p, e) in [(4, 2, 2, 4), (5, 2, 2, 4), (6, 3, 2, 4), (5, 1, 3, 2)]:
            lo, hi = sandwich_bounds(n, k, p, e)
            h = ledger.census(n, p, e).h_counts[k]
            assert lo <= h <= hi


class TestMultiplicative:
    def test_spf(self):
        spf = smallest_prime_factors(10)
        assert spf[9] == 3 and spf[10] == 2 and spf[7] == 7
        for limit in (0, 1, 2, 4, 9, 48, 49, 50, 1000):
            assert smallest_prime_factors(limit)[2:] == [
                next(d for d in range(2, j + 1) if j % d == 0) for j in range(2, limit + 1)
            ]

    def test_table(self):
        tab = multiplicative_table(IndexSplit.of(12), lambda p, e: p**e)
        assert tab[1:] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]

    def test_shared_split(self):
        split = IndexSplit.of(100)
        assert [q for q, _, _ in split.prime_powers][:8] == [2, 3, 4, 5, 7, 8, 9, 11]
        assert (split.part[12], split.part[90], split.part[81]) == (4, 2, 81)
        # a split serves any number of tables, each as from a split of its own
        for value in (lambda p, e: p**e + e, lambda p, e: p + 2 * e):
            assert multiplicative_table(split, value) == multiplicative_table(
                IndexSplit.of(100), value
            )

    def test_missing_listed(self, tmp_path):
        with pytest.raises(MissingCensusError) as err:
            multiplicative_extend(3, 6, CountLedger(tmp_path), compute=False)
        assert err.value.missing == [(3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 5, 1)]

    def test_invalid_arguments_rejected(self, tmp_path):
        ledger = CountLedger(tmp_path)
        for kwargs in ({"compute": False}, {}):
            with pytest.raises(ValueError, match="n >= 1"):
                multiplicative_extend(0, 4, ledger, **kwargs)
            # n is checked at entry, also when no cell is looked up
            with pytest.raises(ValueError, match="not an integer"):
                multiplicative_extend(3.0, 1, ledger, **kwargs)
        with pytest.raises(ValueError, match="limit"):
            multiplicative_extend(3, -3, ledger)
        for coranks in ((3,), (5,), (-1,), (1, 3)):
            with pytest.raises(ValueError, match="coranks"):
                multiplicative_extend(3, 8, ledger, coranks=coranks)
        assert list(tmp_path.iterdir()) == []
        record = ledger.census(3, 2, 2)
        assert record.h_tilde(2) == record.f_count
        for k in (-1, 3):
            with pytest.raises(ValueError, match="corank"):
                record.h_tilde(k)

    def test_missing_after_partial_extend(self, tmp_path):
        multiplicative_extend(3, 4, CountLedger(tmp_path))
        with pytest.raises(MissingCensusError) as err:
            multiplicative_extend(3, 6, CountLedger(tmp_path), coranks=(1, 2), compute=False)
        assert err.value.missing == [(3, 5, 1)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tables_match_factorisation(self, ledger, n):
        def factorise(j):
            out, d = [], 2
            while d * d <= j:
                e = 0
                while j % d == 0:
                    j //= d
                    e += 1
                if e:
                    out.append((d, e))
                d += 1
            return out + [(j, 1)] if j > 1 else out

        def product(j, value):
            out = 1
            for p, e in factorise(j):
                out *= value(p, e)
            return out

        coranks = tuple(range(1, n))
        for limit in (0, 1, 2, 60):
            t = multiplicative_extend(n, limit, ledger, coranks=coranks)
            assert len(t.f) == len(t.lattice) == limit + 1
            indices = range(1, limit + 1)
            assert t.f[1:] == [
                product(j, lambda p, e: ledger.census(n, p, e).f_count) for j in indices
            ]
            assert t.lattice[1:] == [
                product(j, lambda p, e: lattice_prime_power_count(n, p, e)) for j in indices
            ]
            assert sorted(t.h_tilde) == list(coranks)
            for k in coranks:
                assert t.h_tilde[k][1:] == [
                    product(j, lambda p, e: ledger.census(n, p, e).h_tilde(k))
                    for j in indices
                ]

    @pytest.mark.parametrize("n", [3, 4])
    def test_top_corank_table_is_a_copy_of_f(self, ledger, n):
        t = multiplicative_extend(n, 2000, ledger, coranks=(n - 1,))
        built = multiplicative_table(
            IndexSplit.of(2000), lambda p, e: ledger.census(n, p, e).h_tilde(n - 1)
        )
        assert t.h_tilde[n - 1] == built == t.f and t.h_tilde[n - 1] is not t.f

    def test_one_census_call_per_prime_power(self, tmp_path, monkeypatch):
        calls = []
        census = CountLedger.census

        def counted(self, n, p, e, **kwargs):
            calls.append((n, p, e))
            return census(self, n, p, e, **kwargs)

        monkeypatch.setattr(CountLedger, "census", counted)
        prime_powers = [(3, 2, 1), (3, 3, 1), (3, 2, 2), (3, 5, 1), (3, 7, 1),
                        (3, 2, 3), (3, 3, 2), (3, 11, 1), (3, 13, 1), (3, 2, 4)]
        for compute, misses, hits in ((True, 10, 0), (True, 0, 10), (False, 0, 10)):
            calls.clear()
            led = CountLedger(tmp_path)
            multiplicative_extend(3, 16, led, coranks=(1, 2), compute=compute)
            assert calls == prime_powers
            assert (led.stats["misses"], led.stats["hits"]) == (misses, hits)

    def test_extend_rank2(self, ledger):
        t = multiplicative_extend(2, 20, ledger)
        assert t.f[1:] == [1] * 20

    def test_extend_rank3(self, ledger):
        t = multiplicative_extend(3, 12, ledger, coranks=(1, 2))
        assert t.f[6] == 9          # 3 * 3, multiplicativity
        assert t.f[12] == 12        # f(4) f(3) = 4 * 3
        assert t.h_tilde[2][8] == t.f[8]
        assert t.h_tilde[1][4] == 3  # corank <= 1 subrings of index 4
        assert sum(t.h_tilde[2][1:13]) == sum(t.f[1:13])

    def test_extend_requires_data(self, tmp_path):
        led = CountLedger(tmp_path)
        with pytest.raises(MissingCensusError) as err:
            multiplicative_extend(3, 6, led, compute=False)
        assert len(err.value.missing) > 0

    def test_lattice_counts(self, ledger):
        t = multiplicative_extend(2, 10, ledger)
        assert t.lattice[1:] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]
        assert sum(t.lattice[1:10]) == 69  # indices below 10

    def test_lattice_prime_power(self):
        # rank 2, determinant p^e: 1 + p + ... + p^e Hermite forms
        assert lattice_prime_power_count(2, 3, 2) == 13
        assert lattice_prime_power_count(1, 5, 4) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 101, 19997])
    def test_lattice_prime_power_matches_the_coefficient_loop(self, p):
        # the x^e coefficient of prod_{i<n} 1/(1 - p^i x), one factor at a time
        def coefficient_loop(n, e):
            coeffs = [1] + [0] * e
            for i in range(n):
                w = p**i
                for j in range(1, e + 1):
                    coeffs[j] += coeffs[j - 1] * w
            return coeffs[e]

        for n in range(9):
            for e in range(15):
                assert lattice_prime_power_count(n, p, e) == coefficient_loop(n, e), (n, e)


class TestNoCyclicGarbage:
    def test_census_paths_free_their_state_by_reference_count(self, tmp_path):
        """Each census path leaves nothing for the cyclic collector: its search
        and block-recursion state is freed when the call returns or raises."""

        def budget_miss():
            with pytest.raises(BudgetExceededError):
                CountLedger().census(5, 2, 8, budget=NodeBudget(50))

        def extend_and_replay():
            multiplicative_extend(3, 500, CountLedger(tmp_path), coranks=(1, 2))
            multiplicative_extend(3, 500, CountLedger(tmp_path), coranks=(1, 2), compute=False)

        calls = {
            "cold census(4, 2, 6)": lambda: CountLedger().census(4, 2, 6),
            "cold census(6, 2, 7)": lambda: CountLedger().census(6, 2, 7),
            "census(4, 2, 5, recheck=True)": lambda: CountLedger().census(4, 2, 5, recheck=True),
            "naive enumerate(3, 2, 4)": lambda: enumerate_subrings(EnumSpec(3, 2, 4, mode="naive")),
            "extend(3, 500) and replay": extend_and_replay,
            "census(5, 2, 8) over budget": budget_miss,
        }
        gc.collect()
        gc.disable()
        try:
            collected = {}
            for name, call in calls.items():
                call()
                collected[name] = gc.collect()
        finally:
            gc.enable()
        assert collected == dict.fromkeys(calls, 0)
