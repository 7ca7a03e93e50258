from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subring_census.polynomials import (
    MPoly,
    RatFunc,
    expand,
    functional_equation_check,
    specialize,
)

P = MPoly.variable("p")
X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")
ONE = MPoly.const(1)


def small_polys():
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    term = st.tuples(monos, st.integers(-4, 4))
    return st.lists(term, max_size=4).map(
        lambda items: sum((MPoly({e: c}) for e, c in items), MPoly())
    )


class TestMPoly:
    def test_basic_arithmetic(self):
        assert (ONE + X) * (ONE - X) == ONE - X**2
        assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
        assert X - X == MPoly()
        assert not (X - X)

    def test_no_zero_terms_stored(self):
        q = (ONE + X) - X
        assert q.terms == {(0, 0, 0, 0): 1}

    def test_degrees(self):
        q = P**2 * X * Z**3 + Y
        assert q.degrees() == (2, 1, 1, 3)
        assert MPoly().degrees() == (0, 0, 0, 0)

    def test_eval(self):
        q = 2 * P * X**2 - Z
        assert q.eval(p=3, x=2, z=5) == 19
        assert q.eval(p=Fraction(1, 2), x=2, z=0) == 4

    def test_substitute(self):
        q = X**2 * Y
        assert q.substitute({"y": X}) == X**3
        assert q.substitute({"y": 0}) == MPoly()
        assert q.substitute({"x": ONE + X}) == (ONE + X) ** 2 * Y

    def test_derivative(self):
        q = X**3 + P * X
        assert q.derivative("x") == 3 * X**2 + P
        assert MPoly.const(7).derivative("x") == MPoly()

    def test_reciprocal_reversal(self):
        q = ONE + 2 * X + 3 * P * X**2
        assert q.reciprocal_reversal() == P * X**2 + 2 * P * X + 3 * MPoly.const(1)

    def test_str(self):
        assert str(ONE - X) == "1 - x"
        assert str(MPoly()) == "0"

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


class TestRatFunc:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, MPoly())

    def test_cross_multiplication_equality(self):
        f = RatFunc(ONE - X**2, (ONE - X) * (ONE + X) ** 2)
        g = RatFunc(ONE, ONE + X)
        assert f == g

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=40)
    def test_equality_is_scaling_invariant(self, a, d, s):
        if d.is_zero() or s.is_zero():
            return
        f = RatFunc(a, d)
        assert f == RatFunc(a * s, d * s)

    def test_equivalence_transitivity_spot(self):
        f = RatFunc(X, ONE - X)
        g = RatFunc(X * (ONE + X), (ONE - X) * (ONE + X))
        h = RatFunc(X * (ONE + Y), (ONE - X) * (ONE + Y))
        assert f == g and g == h and f == h

    def test_derivative_quotient_rule(self):
        f = RatFunc(X**2, ONE - X)
        d = f.derivative("x")
        # x^2/(1-x) differentiates to (2x - x^2)/(1-x)^2
        assert d == RatFunc(2 * X - X**2, (ONE - X) ** 2)

    def test_derivative_of_constant(self):
        assert RatFunc(MPoly.const(5), ONE).derivative("x") == RatFunc(MPoly(), ONE)

    def test_eval(self):
        f = RatFunc(ONE, ONE - X)
        assert f.eval(x=Fraction(1, 2)) == 2

    def test_reciprocal_arguments(self):
        f = RatFunc(ONE, ONE - X)
        # 1/(1 - 1/x) = x/(x-1) = -x/(1-x)
        assert f.reciprocal_arguments() == f * (-X)


class TestSpecialize:
    def test_rename_and_kill(self):
        f = RatFunc(ONE + X * Y, ONE - Y * Z)
        assert specialize(f, {"y": "x", "z": 0}) == RatFunc(ONE + X**2, ONE)

    def test_rejects_bad_targets(self):
        f = RatFunc(ONE, ONE - X)
        with pytest.raises(ValueError):
            specialize(f, {"p": 0})
        with pytest.raises(ValueError):
            specialize(f, {"y": 1})

    def test_denominator_annihilation(self):
        f = RatFunc(ONE, Y)
        with pytest.raises(ZeroDivisionError):
            specialize(f, {"y": 0})


class TestFunctionalEquation:
    def test_geometric(self):
        f = RatFunc(ONE, ONE - X)
        assert functional_equation_check(f, -X)
        assert not functional_equation_check(f, X)

    def test_requires_monomial(self):
        f = RatFunc(ONE, ONE - X)
        with pytest.raises(ValueError):
            functional_equation_check(f, ONE + X)


class TestExpand:
    def test_geometric_series(self):
        t = expand(RatFunc(ONE, ONE - X), (6, 0, 0))
        for e in range(7):
            assert t.x_coefficient(e) == ONE

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            expand(RatFunc(ONE, 2 * ONE - X), (3, 0, 0))
        with pytest.raises(ValueError):
            expand(RatFunc(ONE, X), (3, 0, 0))

    def test_p_in_denominator(self):
        t = expand(RatFunc(ONE, ONE - P * X**2), (6, 0, 0))
        assert t.x_coefficient(4) == P**2
        assert t.x_coefficient(3) == MPoly()

    def test_product_is_convolution(self):
        f = RatFunc(ONE + X, ONE - P * X**2)
        g = RatFunc(ONE - 2 * X, ONE - X)
        n = 6
        tf, tg, tfg = expand(f, (n, 0, 0)), expand(g, (n, 0, 0)), expand(f * g, (n, 0, 0))
        for e in range(n + 1):
            conv = MPoly()
            for a in range(e + 1):
                conv = conv + tf.x_coefficient(a) * tg.x_coefficient(e - a)
            assert conv == tfg.x_coefficient(e)

    def test_multivariate_bounds_and_total(self):
        f = RatFunc(ONE, (ONE - X) * (ONE - Y) * (ONE - Z))
        t = expand(f, (2, 2, 2), total=3)
        assert t.coefficient(1, 1, 1) == ONE
        assert all(a + b + c <= 3 for (a, b, c) in t.coefficients)
        with pytest.raises(KeyError):
            t.coefficient(2, 2, 0)

    def test_negative_index_rejected(self):
        # a negative key is outside the table, not a zero coefficient
        t = expand(RatFunc(ONE, ONE - P * X), (4, 0, 0))
        for key in ((-1, 0, 0), (0, -1, 0), (1, 0, -1)):
            with pytest.raises(KeyError):
                t.coefficient(*key)
        with pytest.raises(KeyError):
            t.x_coefficient_at(-2, 2)

    def test_negative_unit_constant(self):
        t = expand(RatFunc(ONE, X - ONE), (3, 0, 0))
        for e in range(4):
            assert t.x_coefficient(e) == -ONE

    def test_coefficient_at(self):
        t = expand(RatFunc(ONE, ONE - P * X), (4, 0, 0))
        assert t.x_coefficient_at(3, 5) == 125

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            expand(RatFunc(ONE, ONE - X), (3, 0, 0), total=-1)

    @given(
        small_polys(),
        small_polys(),
        st.sampled_from([1, -1]),
        st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2)),
        st.none() | st.integers(0, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_series_times_denominator_is_numerator(self, num, g, c0, bounds, total):
        # keep g free of constant term in x, y, z, so den has constant term c0
        den = c0 + MPoly({e: c for e, c in g.terms.items() if any(e[1:])})
        t = expand(RatFunc(num, den), bounds, total)
        cap = sum(bounds) if total is None else total

        def truncated(poly):
            return MPoly({
                e: c for e, c in poly.terms.items()
                if all(k <= b for k, b in zip(e[1:], bounds)) and sum(e[1:]) <= cap
            })

        series = sum(
            (poly * MPoly.monomial(1, 0, *key) for key, poly in t.coefficients.items()), MPoly()
        )
        assert truncated(series) == series
        assert truncated(series * den) == truncated(num)
