"""Machine-checkable claim catalog tying enumeration to the exact formulas.

Each check computes a left- and right-hand side by two independent routes and
records them with a stable id and a self-contained description.  Failures are
report entries, never exceptions.  Every check that enumerates or takes a
census runs under `_check`: the searches of its block spend one fresh
`NodeBudget`, so the node budget bounds each check, and when the block
exhausts it the check is recorded as skipped, under its own id and
description, and the suite goes on.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import analytics
from .catalog import catalog, irreducible_count, irreducible_count_poly
from .combinatorics import binomial
from .counting import (
    CensusValidationError,
    CountLedger,
    corank2_formula_coefficients,
    corank3_formula_coefficients,
    displayed_formula_h,
    formula_h,
    multiplicative_extend,
    sandwich_bounds,
)
from .enumeration import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    EnumSpec,
    NodeBudget,
    PruneRuleSet,
    enumerate_subrings,
    permutation_gaps,
)
from .hnf import Cotype, HnfMatrix, smith_normal_form, snf_oracle_minor_gcds
from .polynomials import (
    ONE, MPoly, P, RatFunc, X, Y, Z, expand, functional_equation_check, specialize
)


@dataclass
class CheckResult:
    check_id: str
    description: str
    lhs: object
    rhs: object
    passed: bool
    skipped: bool = False
    note: str = ""

    def to_payload(self) -> dict:
        return {
            "id": self.check_id,
            "description": self.description,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "skipped": self.skipped,
            "note": self.note,
        }


@dataclass
class VerifyScope:
    """Which suites to run and at what scale.

    node_budget is the node limit of each check: `_check` gives every check
    a fresh `NodeBudget` of it (see `enumeration.NodeBudget`).
    prime/max_index narrow the cotype-z4 grid to a single prime and index
    bound (max_index needs prime); the other suites keep their stock grids.
    """

    suites: tuple[str, ...] = ("all",)
    small: bool = False
    stretch: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET
    prime: int | None = None
    max_index: int | None = None
    ledger: CountLedger = field(default_factory=CountLedger)

    def __post_init__(self) -> None:
        # the budget of the current check; `_check` starts a fresh one
        self.budget = NodeBudget(self.node_budget)
        if self.max_index is not None and self.prime is None:
            raise ValueError("an index bound for the cotype-z4 suite needs its prime")

    def wants(self, name: str) -> bool:
        return "all" in self.suites or name in self.suites

    def census(self, n: int, p: int, e: int, **kwargs):
        """The ledger's census of (n, p, e), spending the current check's budget."""
        return self.ledger.census(n, p, e, budget=self.budget, **kwargs)


def _result(check_id, description, lhs, rhs, passed=None, note="") -> CheckResult:
    if passed is None:
        passed = lhs == rhs
    return CheckResult(check_id, description, lhs, rhs, bool(passed), note=note)


@contextlib.contextmanager
def _check(
    scope: VerifyScope,
    out: list[CheckResult],
    check_id: str,
    description: str | Callable[[], str],
):
    """Run one check's block, which records its sides through the yielded
    function.  The block's searches spend one fresh budget (`scope.budget`),
    so the node budget bounds the check as a whole.  A block that exhausts
    it records the check as skipped instead, under the same id and
    description, and the suite goes on.  A description that names what the
    block counted is given as a function, read when the check is recorded."""
    describe = description if callable(description) else lambda: description
    scope.budget = NodeBudget(scope.node_budget)

    def record(lhs, rhs, passed=None, note="") -> None:
        out.append(_result(check_id, describe(), lhs, rhs, passed, note))

    try:
        yield record
    except BudgetExceededError as exc:
        note = f"budget exhausted: {exc}"
        out.append(CheckResult(check_id, describe(), None, None, True, skipped=True, note=note))


# ---------------------------------------------------------------------------
# cocyclic: h_{n,1}(p^e) = C(n, 2)


def suite_cocyclic(scope: VerifyScope) -> list[CheckResult]:
    out = []
    n_range = (2, 3, 4) if scope.small else (2, 3, 4, 5, 6)
    p_range = (2, 3) if scope.small else (2, 3, 5)
    e_max = 3 if scope.small else 6
    for n in n_range:
        for p in p_range:
            with _check(
                scope,
                out,
                f"cocyclic/n={n}/p={p}",
                f"count of corank-1 subrings of Z^{n} at index {p}^e equals C({n},2) "
                f"for e <= {e_max}",
            ) as record:
                counts = [scope.census(n, p, e).h_counts[1] for e in range(1, e_max + 1)]
                record(counts, [binomial(n, 2)] * e_max)
    return out


# ---------------------------------------------------------------------------
# corank-formulas: the displayed closed forms for h_{n,2} and h_{n,3}, kept as
# the record that the census refutes them from n = 5 on (formula_h holds the
# exact counts of the irreducible decomposition)


def suite_corank_formulas(scope: VerifyScope) -> list[CheckResult]:
    out = []
    # k -> (exponents, dimensions, displayed form at p)
    forms = {
        2: (range(2, 4 if scope.small else 7), (3, 4) if scope.small else (3, 4, 5, 6),
            "a(n) g_3({p}^e) + b(n)(e-1)"),
        3: (range(3, 5 if scope.small else 7), (4,) if scope.small else (4, 5, 6),
            "c(n) g_4({p}^e) + d(n) sum_j (j-1) g_3({p}^j)"),
    }
    for k, (e_range, n_range, form) in forms.items():
        for n in n_range:
            for p in (2, 3):
                with _check(
                    scope,
                    out,
                    f"corank{k}-closed-form/n={n}/p={p}",
                    f"h(n={n}, k={k}; {p}^e) equals {form.format(p=p)}",
                ) as record:
                    record(
                        [scope.census(n, p, e).h_counts[k] for e in e_range],
                        [displayed_formula_h(n, k, p, e) for e in e_range],
                    )
    # informational: the variant reading with the fixed argument g_3(p^3) in
    # place of g_3(p^e) disagrees with the census once e != 3.
    n0, p0, e0 = 3, 2, 2
    a, b = corank2_formula_coefficients(n0)
    variant = a * irreducible_count(3, p0, 3) + b * (e0 - 1)
    with _check(
        scope,
        out,
        "corank2-variant-flag",
        "fixed-argument variant a(n) g_3(p^3) + b(n)(e-1) does NOT match the census "
        f"at n={n0}, p={p0}, e={e0} (informational; the e-dependent form does)",
    ) as record:
        true_count = scope.census(n0, p0, e0).h_counts[2]
        record(variant != true_count, True, note=f"variant={variant}, census={true_count}")
    if not scope.small:
        # informational: at n = 5 the pair contribution aggregates WITHOUT the
        # (j-1) weight; the census sides with the unweighted sum there.
        c5, d5 = corank3_formula_coefficients(5)
        unweighted = c5 * irreducible_count(4, 2, 4) + d5 * sum(
            irreducible_count(3, 2, j) for j in range(2, 4)
        )
        weighted = displayed_formula_h(5, 3, 2, 4)
        with _check(
            scope,
            out,
            "corank3-weight-flag",
            "unweighted pair sum c(5) g_4(2^4) + d(5) sum_j g_3(2^j) matches "
            "the census at n=5 while the (j-1)-weighted form does not "
            "(informational erratum evidence)",
        ) as record:
            census_count = scope.census(5, 2, 4).h_counts[3]
            record(
                unweighted == census_count,
                True,
                note=f"unweighted={unweighted}, weighted={weighted}, census={census_count}",
            )
    return out


# ---------------------------------------------------------------------------
# local-factors: f_3 / f_4 against series coefficients


def suite_local_factors(scope: VerifyScope) -> list[CheckResult]:
    out = []
    p_range = (2, 3) if scope.small else (2, 3, 5)
    for n, entry, e_max in ((3, "subring_local_z3", 8), (4, "subring_local_z4", 6)):
        if scope.small:
            e_max = min(e_max, 4)
        table = expand(catalog(entry), (e_max, 0, 0))
        for p in p_range:
            with _check(
                scope,
                out,
                f"local-factor/n={n}/p={p}",
                f"census totals f_{n}({p}^e) for e <= {e_max} equal the "
                "series coefficients of the catalogued local factor",
            ) as record:
                record(
                    [scope.census(n, p, e).f_count for e in range(e_max + 1)],
                    [table.x_coefficient_at(e, p) for e in range(e_max + 1)],
                )
    return out


# ---------------------------------------------------------------------------
# cotype-z4: full cotype census against the catalogued 3-variable factor


def _census_cotype_exponents(scope: VerifyScope, p: int, e: int) -> dict[tuple[int, int, int], int]:
    record = scope.census(4, p, e)
    return {Cotype(alphas).exponents(p): count for alphas, count in record.cotype_counts.items()}


def suite_cotype_z4(scope: VerifyScope) -> list[CheckResult]:
    out = []
    grids = [(2, 6), (3, 4)] if scope.small else [(2, 10), (3, 6)]
    if scope.stretch:
        grids = [(2, 14), (3, 6)]
    if scope.prime is not None:
        emax = 0
        if scope.max_index is not None:
            while scope.prime ** (emax + 1) <= scope.max_index:
                emax += 1
        else:
            emax = dict(grids).get(scope.prime, 6)
        grids = [(scope.prime, emax)]
    f4 = catalog("cotype_z4")
    emax_all = max(e for _, e in grids)
    table = expand(f4, (emax_all, emax_all // 2, emax_all // 3), total=emax_all)
    predicted_all = {
        key: poly for key, poly in table.coefficients.items() if not poly.is_zero()
    }
    chain_ok = all(a >= b >= c for (a, b, c) in predicted_all)
    out.append(
        _result(
            "cotype-z4/chain-support",
            "every nonzero series coefficient of the cotype factor sits on a "
            "weakly decreasing exponent triple",
            chain_ok,
            True,
        )
    )
    census_by_p: dict[int, dict[tuple[int, int, int], int]] = {}
    for p, emax in grids:
        with _check(
            scope,
            out,
            f"cotype-z4/p={p}",
            f"cotype census of Z^4 at p={p} for total index <= {p}^{emax} "
            "matches the series coefficients of the catalogued factor exactly",
        ) as record:
            census: dict[tuple[int, int, int], int] = {}
            for e in range(emax + 1):
                census.update(_census_cotype_exponents(scope, p, e))
            census_by_p[p] = census
            predicted = {
                key: poly.eval(p=p)
                for key, poly in predicted_all.items()
                if sum(key) <= emax
            }
            record(census, {k: v for k, v in predicted.items() if v})
    # left out when a prime was skipped
    if len(census_by_p) == 2:
        shared = min(e for _, e in grids)
        matches = True
        tested = 0
        for key, poly in predicted_all.items():
            if sum(key) > shared:
                continue
            if poly.degrees()[0] > 1:
                continue
            v2 = census_by_p[2].get(key, 0)
            v3 = census_by_p[3].get(key, 0)
            c1 = v3 - v2
            c0 = 3 * v2 - 2 * v3
            interp = MPoly.monomial(c0) + MPoly.monomial(c1, ep=1) if c1 else MPoly.monomial(c0)
            tested += 1
            if interp != poly:
                matches = False
        out.append(
            _result(
                "cotype-z4/cross-prime",
                "linear interpolation of the p=2 and p=3 censuses recovers every "
                f"catalogued coefficient of degree <= 1 in p ({tested} monomials)",
                matches,
                True,
            )
        )
    return out


# ---------------------------------------------------------------------------
# identities: exact rational-function identities


def suite_identities(scope: VerifyScope) -> list[CheckResult]:
    out = []
    f2, f3, f4 = catalog("cotype_z2"), catalog("cotype_z3"), catalog("cotype_z4")
    out.append(
        _result(
            "identity/fe-rank2",
            "rank-2 cotype factor satisfies F(1/p; 1/x) = -x F(p; x)",
            functional_equation_check(f2, -X),
            True,
        )
    )
    out.append(
        _result(
            "identity/fe-rank3",
            "rank-3 cotype factor satisfies F(1/p; 1/x, 1/y) = p x y F(p; x, y)",
            functional_equation_check(f3, P * X * Y),
            True,
        )
    )
    out.append(
        _result(
            "identity/fe-rank4",
            "rank-4 cotype factor satisfies F(1/p; 1/x, 1/y, 1/z) = -p^3 x y z F(p; x, y, z)",
            functional_equation_check(f4, -(P**3) * X * Y * Z),
            True,
        )
    )
    out.append(
        _result(
            "identity/diagonal-z3",
            "rank-3 cotype factor on the diagonal equals the Z^3 subring local factor",
            specialize(f3, {"y": "x"}) == catalog("subring_local_z3"),
            True,
        )
    )
    out.append(
        _result(
            "identity/diagonal-z4",
            "rank-4 cotype factor on the diagonal equals the Z^4 subring local factor",
            specialize(f4, {"y": "x", "z": "x"}) == catalog("subring_local_z4"),
            True,
        )
    )
    out.append(
        _result(
            "identity/corank1-z4",
            "rank-4 cotype factor at (x, 0, 0) equals (1 + 5x)/(1 - x)",
            specialize(f4, {"y": 0, "z": 0}) == RatFunc(ONE + 5 * X, ONE - X),
            True,
        )
    )
    out.append(
        _result(
            "identity/corank2-z4",
            "rank-4 cotype factor at (x, x, 0) equals the corank <= 2 local factor of Z^4",
            specialize(f4, {"y": "x", "z": 0}) == catalog("corank2_local_z4"),
            True,
        )
    )
    out.append(
        _result(
            "identity/corank2-parameterized-z4",
            "the n = 4 instance of the corank <= 2 local factor equals its Z^4 special form",
            catalog("corank2_local", 4) == catalog("corank2_local_z4"),
            True,
        )
    )
    # corank <= 2 factor series: 1 + m x^1 + sum_{e>=2} (m + h_{n,2}(p^e)) x^e,
    # h_{n,2} from formula_h.  Both sides have degree <= 2 in p (formula_h
    # through g_3), so agreement at three primes is equality of polynomials.
    emax = 8
    for n in (4, 5, 6):
        table = expand(catalog("corank2_local", n), (emax, 0, 0))
        m = binomial(n, 2)
        ok = table.coefficient(0) == ONE and table.coefficient(1) == MPoly.const(m)
        for e in range(2, emax + 1):
            coeff = table.coefficient(e)
            low = max(coeff.degrees()[0], irreducible_count_poly(3, e).degrees()[0]) <= 2
            if not low or any(coeff.eval(p=q) != m + formula_h(n, 2, q, e) for q in (2, 3, 5)):
                ok = False
        out.append(
            _result(
                f"identity/corank2-series/n={n}",
                f"corank <= 2 local factor of Z^{n} expands to the closed-form "
                f"coefficients for e <= {emax} (exact polynomials in p)",
                ok,
                True,
            )
        )
    b2 = catalog("irreducible_z3")
    displayed = RatFunc(
        -X
        * (
            MPoly.const(-2)
            + X
            - 3 * P * X
            - 6 * P * X**2
            + 5 * P * X**3
            + 2 * P * X**4
            + 3 * P**2 * X**5
        ),
        ((ONE - X) ** 2) * ((ONE - P * X**3) ** 2),
    )
    out.append(
        _result(
            "identity/irreducible-z3-derivative",
            "x-derivative of the Z^3 irreducible series matches its displayed quotient form",
            b2.derivative("x") == displayed,
            True,
        )
    )
    weighted = expand(b2.derivative("x") * RatFunc(X, ONE), (emax, 0, 0))
    base = expand(b2, (emax, 0, 0))
    ok = all(
        weighted.coefficient(e) == MPoly.const(e) * base.coefficient(e) for e in range(emax + 1)
    )
    out.append(
        _result(
            "identity/irreducible-z3-weighted",
            "x d/dx of the Z^3 irreducible series has coefficients e g_3(p^e), e <= 8",
            ok,
            True,
        )
    )
    # consistency: z3 subring local factor assembled from its zeta building blocks
    assembled = RatFunc((ONE - X**2) ** 2, (ONE - X) ** 3 * (ONE - P * X**3))
    out.append(
        _result(
            "identity/z3-assembled",
            "Z^3 subring local factor equals the assembled product of its zeta factors",
            assembled == catalog("subring_local_z3"),
            True,
        )
    )
    return out


# ---------------------------------------------------------------------------
# invariants: structural facts on enumerated matrices + count sandwich


def suite_invariants(scope: VerifyScope) -> list[CheckResult]:
    out = []
    # a full enumeration validates the structure of every matrix it records;
    # recheck forces one, since a census built from irreducible blocks checks
    # only the blocks' matrices, and compares it with any cached record.
    grids = [(3, 2, 4), (3, 3, 3), (4, 2, 4), (4, 3, 3)]
    if not scope.small:
        grids += [(3, 5, 5), (4, 5, 4), (5, 2, 4), (6, 2, 3)]
    checked = 0
    with _check(
        scope,
        out,
        "invariants/structural",
        lambda: "corank equals diagonal support, last-column 0/1 and pair rules, and "
        f"exactly-one-1 rule hold for all {checked} matrices in the census grids",
    ) as record:
        violation = ""
        try:
            for n, p, emax in grids:
                for e in range(emax + 1):
                    census = scope.census(n, p, e, recheck=True)
                    checked += census.f_count
        except CensusValidationError as exc:
            violation = str(exc)
        record(violation or "no violations", "no violations")
    with _check(
        scope,
        out,
        "invariants/count-sandwich",
        "C(n-1,k) g_{k+1}(p^e) <= h_{n,k}(p^e) <= (n-k)^k C(n-1,k) g_{k+1}(p^e) "
        "across the sampled grid",
    ) as record:
        sandwich_ok = True
        worst = ""
        for n in (3, 4, 5, 6):
            for k in (1, 2, 3):
                if k >= n:
                    continue
                for p in (2, 3):
                    emax = 3 if scope.small else 5
                    for e in range(k, emax + 1):
                        h = scope.census(n, p, e).h_counts[k]
                        lo, hi = sandwich_bounds(n, k, p, e)
                        if not lo <= h <= hi:
                            sandwich_ok = False
                            worst = f"(n={n}, k={k}, p={p}, e={e}): {lo} <= {h} <= {hi} fails"
        record(sandwich_ok, True, note=worst)
    # The full-support search certifies products by its pruning rules alone
    # (see enumeration._pruned_for_diagonal); coordinate symmetry checks its
    # output without them, at cells the naive engine cannot reach.
    for n, p, e in ((4, 2, 5), (5, 2, 6), (5, 3, 5), (6, 2, 7), (7, 2, 8)):
        with _check(
            scope,
            out,
            f"invariants/permutation-closure/n={n}/p={p}/e={e}",
            f"the irreducible subrings of Z^{n} at index {p}^{e} are closed under the "
            f"coordinate permutations (0 1) and (0 1 ... {n - 1}), which generate S_{n}; "
            f"a search that lost whole S_{n}-orbits would still pass",
        ) as record:
            matrices = enumerate_subrings(EnumSpec(n, p, e, corank=n - 1), scope.budget)
            record(len(permutation_gaps(matrices)), 0, note=f"{len(matrices)} matrices")
    return out


# ---------------------------------------------------------------------------
# oracle: naive vs pruned enumeration; elimination vs minor-gcd Smith form


def suite_oracle(scope: VerifyScope) -> list[CheckResult]:
    out = []
    e_max = 3 if scope.small else 5
    for n in (2, 3, 4):
        for p in (2, 3):
            with _check(
                scope,
                out,
                f"oracle/enumeration/n={n}/p={p}",
                f"definition-only and rule-driven enumerations agree for Z^{n} "
                f"at p={p}, e <= {e_max} (same sets, same canonical order)",
            ) as record:
                agree = True
                detail = ""
                for e in range(e_max + 1):
                    naive = enumerate_subrings(EnumSpec(n, p, e, "naive"), scope.budget)
                    pruned = enumerate_subrings(EnumSpec(n, p, e, "pruned"), scope.budget)
                    if [m.entries for m in naive] != [m.entries for m in pruned]:
                        agree = False
                        detail = f"mismatch at e={e}"
                        break
                record(agree, True, note=detail)
    with _check(
        scope,
        out,
        "oracle/rules-off",
        "pruned engine with every rule disabled reproduces the naive output",
    ) as record:
        rules_off = enumerate_subrings(
            EnumSpec(4, 2, 3, "pruned", rules=PruneRuleSet.none()), scope.budget
        )
        naive = enumerate_subrings(EnumSpec(4, 2, 3, "naive"), scope.budget)
        record([m.entries for m in rules_off], [m.entries for m in naive])
    rng = random.Random(0xC0FFEE)
    samples = 10**3 if scope.small else 10**4
    mismatches = 0
    for _ in range(samples):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, 15)
            for j in range(i + 1, n):
                rows[i][j] = rng.randrange(rows[i][i])
        m = HnfMatrix.from_rows(rows)
        if smith_normal_form(m) != snf_oracle_minor_gcds(m):
            mismatches += 1
    out.append(
        _result(
            "oracle/smith-form",
            f"elimination and minor-gcd Smith forms agree on {samples} random "
            "Hermite-form matrices with n <= 5, entries < 16",
            mismatches,
            0,
        )
    )
    return out


# ---------------------------------------------------------------------------
# constants: numeric values within enclosures


QUOTED_CONSTANTS: dict[str, tuple[float, float, str]] = {
    # id: (value, absolute tolerance, kind)
    "p_R_3_1": (0.471683, 5e-6, "abs"),
    "p_R_3_2": (0.528317, 5e-6, "abs"),
    "p_R_4_1": (0.0593079, 5e-6, "abs"),
    "p_R_4_2": (0.4389531, 5e-6, "abs"),
    "p_R_4_3": (0.501739, 5e-6, "abs"),
    "ratio_C_5_2_over_C_5_1": (59.801, 1e-3, "rel"),
    "ratio_C_5_3_over_C_5_1": (679.548, 1e-3, "rel"),
    "lattice_cocyclic_limit": (0.847, 1e-3, "abs"),
    "lattice_corank2_limit": (0.994, 1e-3, "abs"),
    "lattice_corank3_limit": (0.99995, 1e-4, "abs"),
}


# id -> the route that computes it; module attributes are looked up per call
_CONSTANT_ROUTES: dict[str, Callable[[], analytics.BoundedValue]] = {
    "p_R_3_1": lambda: analytics.corank_probability(3, 1),
    "p_R_3_2": lambda: analytics.corank_probability(3, 2),
    "p_R_4_1": lambda: analytics.corank_probability(4, 1),
    "p_R_4_2": lambda: analytics.corank_probability(4, 2),
    "p_R_4_3": lambda: analytics.corank_probability(4, 3),
    "ratio_C_5_2_over_C_5_1": lambda: analytics.tauberian_ratio(5, 2, 1),
    "ratio_C_5_3_over_C_5_1": lambda: analytics.tauberian_ratio(5, 3, 1),
    "lattice_cocyclic_limit": lambda: analytics.lattice_baseline(50, 1),
    "lattice_corank2_limit": lambda: analytics.lattice_baseline(50, 2),
    "lattice_corank3_limit": lambda: analytics.lattice_baseline(50, 3),
    "zeta_2": lambda: analytics.zeta_int(2),
}


def compute_constant(name: str) -> analytics.BoundedValue:
    if name not in _CONSTANT_ROUTES:
        raise KeyError(f"unknown constant id {name!r}")
    return _CONSTANT_ROUTES[name]()


def matches_quote(name: str, value: analytics.BoundedValue) -> bool:
    """The pass rule for a computed value against its quote.

    The quoted decimals themselves carry error at the tolerance scale, so the
    value must come within the tolerance of the quote and the enclosure must
    be at least that tight itself.
    """
    quoted, tol, kind = QUOTED_CONSTANTS[name]
    limit = tol * abs(quoted) if kind == "rel" else tol
    return abs(value.value - quoted) <= limit and value.bound <= limit


def _agree(a: analytics.BoundedValue, b: analytics.BoundedValue, rel: float = 0.0) -> bool:
    """The pass rule for two computed values: |a - b| <= rel |b| + both bounds."""
    return abs(a.value - b.value) <= rel * abs(b.value) + a.bound + b.bound


def suite_constants(scope: VerifyScope) -> list[CheckResult]:
    out = []
    for name, (quoted, tol, kind) in QUOTED_CONSTANTS.items():
        value = compute_constant(name)
        out.append(
            _result(
                f"constants/{name}",
                f"{name} = {quoted} within {tol} ({kind}), with an enclosure no wider",
                round(value.value, 10),
                quoted,
                passed=matches_quote(name, value),
                note=f"bound={value.bound:.3g}",
            )
        )
    z2 = analytics.zeta_int(2)
    closed_forms = (
        (3, 2, 1 / (2 * z2), "1/(2 zeta(2))"),
        (4, 3, 1 / (120 * z2**3), "1/(5! zeta(2)^3)"),
    )
    for n, k, ref, form in closed_forms:
        c = analytics.tauberian_constant(n, k)
        out.append(
            _result(
                f"constants/C_{n}_{k}-closed-form",
                f"corank <= {k} accumulation constant of Z^{n} equals {form} (relative 1e-6)",
                round(c.value, 10),
                round(ref.value, 10),
                passed=_agree(c, ref, 1e-6),
                note=f"bounds {c.bound:.3g} / {ref.bound:.3g}",
            )
        )
    # these hold by construction: corank_probability computes the top corank
    # as 1 minus the others, so the sum is 1 whatever the Euler products
    # return; C_3_2-closed-form and C_4_3-closed-form above carry the
    # independent content
    for n in (3, 4):
        total = analytics.corank_probability(n, 1)
        for k in range(2, n):
            total = total + analytics.corank_probability(n, k)
        out.append(
            _result(
                f"constants/z{n}-probabilities-sum",
                f"corank probabilities of Z^{n} sum to 1 within bounds",
                round(total.value, 9),
                1.0,
                passed=_agree(total, analytics.BoundedValue(1.0, 0.0)),
            )
        )
    out.append(
        _result(
            "constants/coprime-density-z3-p2",
            "proportion of subrings of Z^3 with odd index is exactly 1/6",
            analytics.coprime_index_ratio_exact(3, 2),
            Fraction(1, 6),
        )
    )
    out.append(
        _result(
            "constants/growth-exponent",
            "exact growth exponent at n = 7 equals 9/8",
            analytics.a_lower(7),
            Fraction(9, 8),
        )
    )
    return out


# ---------------------------------------------------------------------------
# rpstar: uniqueness of the all-p cotype


def suite_rpstar(scope: VerifyScope) -> list[CheckResult]:
    out = []
    n_range = (3, 4) if scope.small else (3, 4, 5)
    for n in n_range:
        for p in (2, 3):
            key = (p,) * (n - 1)
            with _check(
                scope,
                out,
                f"rpstar/n={n}/p={p}",
                f"exactly one subring of Z^{n} has cotype ({','.join(map(str, key))})",
            ) as record:
                record(scope.census(n, p, n - 1).cotype_counts.get(key, 0), 1)
    return out


# ---------------------------------------------------------------------------
# stretch: budget-gated extended checks


def suite_stretch(scope: VerifyScope) -> list[CheckResult]:
    out = []
    with _check(
        scope, out, "stretch/z6-index-128", "Z^6 has at least 2^6 = 64 subrings of index 2^7"
    ) as record:
        f_count = scope.census(6, 2, 7).f_count
        record(f_count, 64, passed=f_count >= 64)
    limit = 200 if not scope.small else 60
    with _check(
        scope,
        out,
        "stretch/sylow-bijection",
        f"subrings of Z^3 of index <= {limit} whose quotient has 2-part "
        "(Z/2)^2 are equinumerous with odd-index subrings of index <= "
        f"{limit // 4}",
    ) as record:
        table = multiplicative_extend(3, limit, scope.ledger, budget=scope.budget)
        record22 = scope.census(3, 2, 2)
        weight = record22.cotype_counts.get((2, 2), 0)
        # the 2-part of a qualifying subring is the unique cotype-(2,2)
        # subring of index 4, so indices are 4 * odd
        lhs = sum(
            weight * table.f[j // 4]
            for j in range(1, limit + 1)
            if j % 4 == 0 and (j // 4) % 2 == 1
        )
        rhs = sum(
            table.f[j] for j in range(1, limit // 4 + 1) if j % 2 == 1
        )
        record(lhs, rhs)
    return out


SUITES: dict[str, Callable[[VerifyScope], list[CheckResult]]] = {
    "cocyclic": suite_cocyclic,
    "corank-formulas": suite_corank_formulas,
    "local-factors": suite_local_factors,
    "cotype-z4": suite_cotype_z4,
    "identities": suite_identities,
    "invariants": suite_invariants,
    "oracle": suite_oracle,
    "constants": suite_constants,
    "rpstar": suite_rpstar,
    "stretch": suite_stretch,
}


def run_verify(scope: VerifyScope) -> list[CheckResult]:
    """Run the selected suites; check ids are unique across the run."""
    unknown = sorted(set(scope.suites) - {"all", *SUITES})
    if unknown:
        raise ValueError(f"unknown suite {', '.join(unknown)}")
    results: list[CheckResult] = []
    for name, fn in SUITES.items():
        if scope.wants(name):
            results.extend(fn(scope))
    seen: set[str] = set()
    for r in results:
        if r.check_id in seen:
            raise RuntimeError(f"duplicate check id {r.check_id}")
        seen.add(r.check_id)
    return results
