import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from subring_census import analytics as an


class TestBoundedValue:
    def test_exact(self):
        v = an.BoundedValue.exact(Fraction(1, 3))
        assert abs(v.value - 1 / 3) <= v.bound

    def test_arithmetic_encloses(self):
        a = an.BoundedValue(1.0, 0.1)
        b = an.BoundedValue(2.0, 0.2)
        s = a + b
        assert s.contains(3.25) and not s.contains(3.5)
        m = a * b
        assert m.value == 2.0 and m.bound >= 0.1 * 2 + 0.2 * 1

    def test_division_guard(self):
        with pytest.raises(ValueError):
            an.BoundedValue(1.0, 0.0) / an.BoundedValue(0.1, 0.09)

    def test_rtruediv(self):
        half = 1 / an.BoundedValue(2.0, 0.0)
        assert half.contains(0.5)

    def test_negative_power_rejected(self):
        # a power loop that runs zero times for k < 0 would return the exact 1
        with pytest.raises(ValueError):
            an.zeta_int(2) ** -1
        assert (an.BoundedValue(2.0, 0.0) ** 0).contains(1.0)

    @given(
        st.floats(-10, 10), st.floats(0, 0.5), st.floats(-10, 10), st.floats(0, 0.5),
        st.floats(-1, 1), st.floats(-1, 1),
    )
    # 0.99999 + 1e-4 rounds up to 1.0000900000000001 in floats, past the
    # interval's exact edge, so true points and containment are exact here
    @example(va=0.99999, ba=1e-4, vb=0.03125, bb=1e-4, ta=1.0, tb=1.0)
    @settings(max_examples=80)
    def test_interval_soundness(self, va, ba, vb, bb, ta, tb):
        # any true values inside the operand intervals stay inside the result
        a = an.BoundedValue(va, ba)
        b = an.BoundedValue(vb, bb)
        xa = Fraction(va) + Fraction(ta) * Fraction(ba)
        xb = Fraction(vb) + Fraction(tb) * Fraction(bb)

        def contains(r, x):
            return abs(Fraction(r.value) - x) <= Fraction(r.bound)

        assert contains(a + b, xa + xb)
        assert contains(a - b, xa - xb)
        assert contains(a * b, xa * xb)


class TestPrimesAndZeta:
    def test_primes(self):
        assert list(an.iter_primes(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert list(an.iter_primes(1)) == []

    def test_zeta2(self):
        z = an.zeta_int(2)
        assert z.contains(math.pi**2 / 6)
        assert z.bound < 1e-7

    def test_zeta_partial_sum_comparison(self):
        # independent oracle: direct partial sums bound zeta(2) from below
        partial = sum(1 / m**2 for m in range(1, 50_000))
        z = an.zeta_int(2)
        assert partial < z.value + z.bound
        assert z.value - z.bound < partial + 1 / 49_999

    def test_zeta_guard(self):
        with pytest.raises(ValueError):
            an.zeta_int(1)

    def test_zeta_closed_forms(self):
        # Euler-Maclaurin with its remainder bound: zeta(2k) = |B_2k| (2 pi)^2k / (2 (2k)!)
        for s, exact in ((2, math.pi**2 / 6), (4, math.pi**4 / 90), (6, math.pi**6 / 945)):
            z = an.zeta_int(s)
            assert z.contains(exact, dilation=2 * math.ulp(exact))
            assert z.bound < 1e-15
        assert an.zeta_int(3).contains(1.2020569031595942)

    def test_prime_zeta_tail_against_direct_sum(self):
        # P_Q(2) = sum_{Q<p<=10^6} p^-2 + sum_{p>10^6} p^-2, the last in [0, 10^-6]
        q, top = 1000, 10**6
        direct = math.fsum(1 / p**2 for p in an.iter_primes(top) if p > q)
        tail = an.prime_zeta_tail(2, q)
        assert tail.value + tail.bound >= direct
        assert tail.value - tail.bound <= direct + 1 / top

    def test_prime_zeta_tail_differences(self):
        # P_Q(s) - P_R(s) is the finite sum over Q < p <= R
        for s in (2, 3, 5):
            low, high = an.prime_zeta_tail(s, 100), an.prime_zeta_tail(s, 10**4)
            direct = math.fsum(1 / p**s for p in an.iter_primes(10**4) if p > 100)
            assert abs((low.value - high.value) - direct) <= low.bound + high.bound + 1e-18
            assert max(low.bound, high.bound) < 1e-15
        with pytest.raises(ValueError):
            an.prime_zeta_tail(1, 100)


class TestEulerProduct:
    def test_product_of_ones(self):
        spec = an.EulerProductSpec("one", lambda p: Fraction(1), 2, 0.0, cutoff=100)
        v = an.euler_product(spec)
        assert v.value == 1.0 and v.bound < 1e-12

    def test_zeta2_as_product(self):
        spec = an.EulerProductSpec(
            "zeta2-inverse", lambda p: Fraction(p**2 - 1, p**2), 2, 1.0, cutoff=10**5
        )
        v = an.euler_product(spec)
        z = an.zeta_int(2)
        assert abs(v.value - 1 / z.value) <= v.bound + 1e-6

    def test_tail_model_violation_detected(self):
        spec = an.EulerProductSpec(
            "bad-model", lambda p: Fraction(1 + p, p), 2, 1.0, cutoff=100
        )
        with pytest.raises(an.TailModelError):
            an.euler_product(spec)

    def test_monotone_in_cutoff_for_decreasing_factors(self):
        spec31 = an.EulerProductSpec.from_inverse_p_polynomial("p31", [1, 0, -3, 2])
        values = []
        for cutoff in (10**3, 10**4, 10**5):
            s = an.EulerProductSpec("p31", spec31.factor, 2, spec31.tail_constant, cutoff)
            values.append(an.euler_product(s).value)
        assert values[0] >= values[1] >= values[2]

    def test_polynomial_spec_factor(self):
        spec = an.EulerProductSpec.from_inverse_p_polynomial("t", [1, 0, -3, 2])
        num, den = spec.factor(5)
        assert Fraction(num, den) == Fraction(5**3 - 3 * 5 + 2, 5**3)
        assert spec.tail_exponent == 2
        with pytest.raises(ValueError):
            an.EulerProductSpec.from_inverse_p_polynomial("t", [2, 1])

    def test_polynomial_spec_keeps_coefficients(self):
        spec = an.EulerProductSpec.from_inverse_p_polynomial("t", [1, 0, -3, 2])
        assert spec.coefficients == (1, 0, -3, 2)
        opaque = an.EulerProductSpec("t", spec.factor, 2, spec.tail_constant)
        assert opaque.coefficients is None

    def test_series_encloses_inverse_zeta2(self):
        spec = an.EulerProductSpec.from_inverse_p_polynomial("zeta2-inverse", [1, 0, -1])
        v = an.euler_product(spec)
        assert v.contains(6 / math.pi**2)
        assert v.bound < 1e-14

    def test_series_matches_loop_on_built_specs(self, monkeypatch):
        # every polynomial spec of corank_probability and tauberian_constant
        # for n <= 4, against the comparison-tail loop over p <= 10^5
        built = {}
        series = an.euler_product

        def record(spec, *args, **kwargs):
            built[spec.coefficients] = spec
            return series(spec, *args, **kwargs)

        monkeypatch.setattr(an, "euler_product", record)
        for n, k in ((3, 1), (4, 1), (4, 2), (4, 3)):
            an.corank_probability(n, k)
        for n, k in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
            an.tauberian_constant(n, k)
        monkeypatch.undo()
        assert len(built) == 5  # corank1-z3, corank1-z4 and corank12-z4 recur
        for spec in built.values():
            fast = an.euler_product(spec)
            slow = an.euler_product(
                an.EulerProductSpec(spec.name, spec.factor, spec.tail_exponent,
                                    spec.tail_constant, cutoff=10**5)
            )
            assert abs(fast.value - slow.value) <= fast.bound + slow.bound, spec.name
            assert fast.bound < 1e-12 < slow.bound

    def test_stats_parts_sum_to_bound(self):
        poly = an.EulerProductSpec.from_inverse_p_polynomial("t", [1, 0, -3, 2])
        opaque = an.EulerProductSpec("t", poly.factor, 2, poly.tail_constant, cutoff=10**3)
        for spec, cutoff, primes, terms in ((poly, 256, 54, 10), (opaque, 1000, 168, 1000)):
            stats = {}
            v = an.euler_product(spec, stats=stats)
            assert (stats["head_cutoff"], stats["head_primes"], stats["series_terms"]) == (
                cutoff, primes, terms)
            parts = stats["tail_bound"] + stats["zeta_bound"] + stats["rounding_bound"]
            assert min(stats["tail_bound"], stats["zeta_bound"], stats["rounding_bound"]) >= 0
            assert parts <= v.bound

    @pytest.mark.parametrize("n, k", [(3, 1), (4, 3), (8, 2), (11, 3)])
    def test_tree_head_equals_sequential_product(self, n, k):
        # the head factors of a tauberian_constant spec at the primes below
        # 2^12, multiplied left to right and as a tree
        spec = an.EulerProductSpec.from_inverse_p_polynomial("t", an._deviation(n, k))
        for part in (0, 1):
            values = [spec.factor(p)[part] for p in an.iter_primes(1 << 12)]
            sequential = 1
            for v in values:
                sequential *= v
            assert an._tree_product(values) == sequential, (n, k, part)
            assert an._tree_product(values[:5]) == math.prod(values[:5])
        assert an._tree_product([]) == 1 and an._tree_product([7]) == 7

    @pytest.mark.parametrize("coeffs", [[1, 0, 2**16], [1, 0, 0, 0, 2**34]], ids=["exp", "expm1"])
    def test_series_out_of_float_range_is_a_value_error(self, coeffs):
        # Head cutoff 2^15 and a log series far past float range: the first
        # spec overflows exp(log_tail), as tauberian_constant(12, 3) does, and
        # the second expm1 of the log's error, each in milliseconds.
        spec = an.EulerProductSpec.from_inverse_p_polynomial("huge", coeffs)
        with pytest.raises(ValueError, match="'huge' leaves float range"):
            an.euler_product(spec)


# The local factors corank_probability spelled out by hand before they came
# from _deviation: (1-u)^2 (1+2u), (1-u)^5 (1+5u), (1-u)^5 (1+u) (1+4u+6u^2).
HAND_FACTORS = {
    (3, 1): [1, 0, -3, 2],
    (4, 1): [1, 0, -15, 40, -45, 24, -5],
    (4, 2): [1, 0, -5, -4, 25, -16, -15, 20, -6],
}


class TestCorankProbabilities:
    def test_deviation_matches_hand_factors(self):
        for (n, k), coeffs in HAND_FACTORS.items():
            assert an._deviation(n, k) == coeffs

    def test_deviation_matches_list_convolution(self):
        # the integer-list products tauberian_constant used before `_deviation`
        from subring_census.counting import (
            corank2_formula_coefficients, corank3_formula_coefficients)

        def times_one_minus_u(coeffs, power):
            for _ in range(power):
                coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
            return coeffs

        for n in range(2, 9):
            m = math.comb(n, 2)
            old = {1: times_one_minus_u([1, m - 1], m - 1)}
            if n >= 3:
                a, b = corank2_formula_coefficients(n)
                old[2] = times_one_minus_u([1, m - 2, 2 * a + b - m, 2 - m, m - 2 * a - b - 1],
                                           m - 2)
            if n >= 4:
                c, d = corank3_formula_coefficients(n)
                old[3] = times_one_minus_u([1, m - 4, 6 + 2 * a + b + c - 3 * m,
                                            -4 - 4 * a - 2 * b + 6 * c + 3 * d + 3 * m,
                                            1 + 2 * a + b - 7 * c + 2 * d - m], m - 4)
            for k, coeffs in old.items():
                while coeffs[-1] == 0 and len(coeffs) > 1:
                    coeffs.pop()
                assert an._deviation(n, k) == coeffs, (n, k)

    def test_matches_products_of_hand_factors(self):
        def product(name, key):
            spec = an.EulerProductSpec.from_inverse_p_polynomial(name, HAND_FACTORS[key])
            return an.euler_product(spec)

        z2 = an.zeta_int(2)
        p31 = z2 * product("corank1-z3", (3, 1))
        p41 = z2**3 * product("corank1-z4", (4, 1))
        upto2 = z2**4 * product("corank12-z4", (4, 2))
        expected = {(3, 1): p31, (3, 2): 1 - p31, (4, 1): p41, (4, 2): upto2 - p41,
                    (4, 3): 1 - upto2}
        for (n, k), v in expected.items():
            got = an.corank_probability(n, k)
            assert (got.value.hex(), got.bound.hex()) == (v.value.hex(), v.bound.hex())

    def test_rank2_trivial(self):
        assert an.corank_probability(2, 1).value == 1.0
        with pytest.raises(ValueError):
            an.corank_probability(2, 2)

    def test_rank2_tauberian_constant_is_one(self):
        # C(2,2) - 1 = 0: the deviation polynomial is 1 and the constant 1/0! = 1
        c = an.tauberian_constant(2, 1)
        assert c.contains(1.0)
        assert c.bound < 1e-14

    def test_tauberian_relative_width_up_to_n8(self):
        # the enclosure is absolute; its relative width reaches 4.2e-4 at
        # (8, 1) and keeps growing with C(n, 2) past n = 8
        for n in range(2, 9):
            for k in range(1, min(n - 1, 3) + 1):
                c = an.tauberian_constant(n, k)
                assert c.value > 0 and c.bound / c.value < 1e-3, (n, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            an.corank_probability(5, 1)
        with pytest.raises(ValueError):
            an.corank_probability(3, 3)

    def test_rank3_sum(self):
        total = an.corank_probability(3, 1) + an.corank_probability(3, 2)
        assert total.contains(1.0)


class TestLatticeBaseline:
    def test_monotone_in_k(self):
        vals = [an.lattice_baseline(10, k).value for k in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2] <= 1.0

    def test_stabilizes_in_n(self):
        for k in (1, 2):
            seq = [an.lattice_baseline(n, k).value for n in (5, 10, 20, 50)]
            assert abs(seq[-1] - seq[-2]) < 1e-3

    def test_bad_k(self):
        with pytest.raises(ValueError):
            an.lattice_baseline(4, 0)

    def test_integer_factor_equals_rational_reference(self):
        def reference(n, k, p):
            jmax = min(n, int(70 / math.log2(p)) + 1)
            partial = [Fraction(1)]
            for j in range(1, jmax + 1):
                partial.append(partial[-1] * (1 - Fraction(1, p**j)))

            def prod_to(j):
                return partial[min(j, jmax)]

            total = sum(1 / (Fraction(p) ** (i * i) * prod_to(i) ** 2 * prod_to(n - i))
                        for i in range(k + 1))
            return prod_to(n) ** 2 * total

        for n in (3, 50):
            for k in range(4):
                for p in an.iter_primes(200):
                    num, den = an._lattice_factor(n, k, p)
                    assert Fraction(num, den) == reference(n, k, p), (n, k, p)

    def test_tail_model_holds_past_the_cutoff(self, monkeypatch):
        # the tail constant is sampled at p = 2, and the loop checks the
        # model only up to its cutoff 10^4; past it, the untruncated factor
        # prod_n^2 sum_{i<=k} 1 / (p^(i^2) prod_i^2 prod_(n-i)) must keep to
        # the model, and the truncated one must stay within 2^-69 of it
        built = []
        loop = an.euler_product

        def record(spec, *args, **kwargs):
            built.append(spec)
            return loop(spec, *args, **kwargs)

        monkeypatch.setattr(an, "euler_product", record)
        n = 50
        for k in (1, 2, 3):
            an.lattice_baseline(n, k)
        monkeypatch.undo()
        assert len(built) == 3
        primes = [10007, 14683, 21557, 31627, 46439, 68141, 100003, 146801, 215447,
                  316241, 464171, 681293, 999983]
        for p in primes:
            partial = [Fraction(1)]
            for j in range(1, n + 1):
                partial.append(partial[-1] * (1 - Fraction(1, p**j)))
            for k, spec in zip((1, 2, 3), built):
                exact = partial[n] ** 2 * sum(
                    1 / (Fraction(p) ** (i * i) * partial[i] ** 2 * partial[n - i])
                    for i in range(k + 1)
                )
                assert abs(exact - 1) * p**spec.tail_exponent <= spec.tail_constant, (k, p)
                truncated = Fraction(*an._lattice_factor(n, k, p))
                assert abs(truncated - exact) <= exact / 2**69, (k, p)


class TestCoprimeAndExponent:
    def test_exact_ratios(self):
        assert an.coprime_index_ratio_exact(2, 2) == Fraction(1, 2)
        assert an.coprime_index_ratio_exact(3, 2) == Fraction(1, 6)
        assert an.coprime_index_ratio_exact(3, 3) == Fraction(1, 3)

    def test_rank3_general_p(self):
        # reciprocal of p(p+1)/(p-1)^2 at the accumulation point
        for p in (2, 3, 5, 7):
            assert an.coprime_index_ratio_exact(3, p) == Fraction((p - 1) ** 2, p * (p + 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            an.coprime_index_ratio_exact(5, 2)

    def test_growth_exponent(self):
        assert an.a_lower(7) == Fraction(9, 8)
        assert an.a_lower(2) == 1

    def test_growth_exponent_asymptotic(self):
        # a(n) >= (3 - 2 sqrt 2)(n - 1) - (sqrt 2 - 1), exact rational test
        from fractions import Fraction as F

        sqrt2_hi = F(14142135624, 10**10)  # sqrt(2) < this
        for n in range(2, 60):
            lower = (3 - 2 * sqrt2_hi) * (n - 1) - (sqrt2_hi - 1)
            assert an.a_lower(n) >= lower


class TestEmpiricalDensity:
    def test_coprime_density_trend_matches_limit(self):
        # the odd-index proportion converges only at log speed, so compare
        # the trend over growing bounds against the exact limiting ratio
        from subring_census.counting import CountLedger, multiplicative_extend

        ledger = CountLedger()
        limit = float(an.coprime_index_ratio_exact(3, 2))
        table = multiplicative_extend(3, 10**4, ledger)

        def ratio(x):
            total = sum(table.f[1 : x + 1])
            odd = sum(table.f[j] for j in range(1, x + 1) if j % 2 == 1)
            return odd / total

        r2, r3, r4 = ratio(10**2), ratio(10**3), ratio(10**4)
        assert r2 > r3 > r4 > limit
        assert abs(r4 - limit) / limit < 0.4
