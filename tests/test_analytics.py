import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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

    @given(
        st.floats(-10, 10), st.floats(0, 0.5), st.floats(-10, 10), st.floats(0, 0.5),
        st.floats(-1, 1), st.floats(-1, 1),
    )
    @settings(max_examples=80)
    def test_interval_soundness(self, va, ba, vb, bb, ta, tb):
        # any true values inside the operand intervals stay inside the result
        a = an.BoundedValue(va, ba)
        b = an.BoundedValue(vb, bb)
        xa = va + ta * ba
        xb = vb + tb * bb
        assert (a + b).contains(xa + xb)
        assert (a - b).contains(xa - xb)
        assert (a * b).contains(xa * xb)


class TestPrimesAndZeta:
    def test_primes(self):
        assert an.primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert an.primes_up_to(1) == []

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
        v = an.euler_product(spec, target=1e-4)
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

    def test_unreachable_target(self):
        # below the rounding floor of a double
        spec = an.EulerProductSpec.from_inverse_p_polynomial("t", [1, 0, -3, 2])
        with pytest.raises(an.EulerProductError):
            an.euler_product(spec, target=1e-18)

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
        # the parts are filled also when the target is out of reach
        stats = {}
        with pytest.raises(an.EulerProductError):
            an.euler_product(poly, target=1e-18, stats=stats)
        assert stats["rounding_bound"] > 1e-18


class TestCorankProbabilities:
    def test_rank2_trivial(self):
        assert an.corank_probability(2, 1).value == 1.0
        with pytest.raises(ValueError):
            an.corank_probability(2, 2)

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
                for p in an.primes_up_to(200):
                    num, den = an._lattice_factor(n, k, p)
                    assert Fraction(num, den) == reference(n, k, p), (n, k, p)


class TestGroupMass:
    def test_aut_orders(self):
        assert an.abelian_p_group_aut_order(3, (1, 1)) == 48
        assert an.abelian_p_group_aut_order(5, (1,)) == 4
        assert an.abelian_p_group_aut_order(5, (2,)) == 20
        assert an.abelian_p_group_aut_order(2, (2, 1)) == 8
        assert an.abelian_p_group_aut_order(2, (1, 1, 1)) == 168

    def test_trivial_group_limit(self):
        v = an.cohen_lenstra_mass(60, 2, ())
        assert abs(v.value - 0.2887880951) < 1e-9

    def test_total_mass_rank1(self):
        total = an.cohen_lenstra_mass(1, 2, ()).value + sum(
            an.cohen_lenstra_mass(1, 2, (j,)).value for j in range(1, 64)
        )
        assert abs(total - 1.0) < 1e-12

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            an.cohen_lenstra_mass(1, 2, (1, 1))


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
