import pytest

from subring_census.catalog import (
    CATALOG_IDS,
    catalog,
    cotype_z4_denominator,
    irreducible_count,
    irreducible_count_poly,
    parse_p_polynomial,
    subring_count_series,
)
from subring_census.combinatorics import binomial
from subring_census.counting import CountLedger
from subring_census.polynomials import MPoly, RatFunc, expand, functional_equation_check, specialize

P = MPoly.variable("p")
X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")
ONE = MPoly.const(1)


class TestCoefficientParser:
    def test_terms(self):
        assert parse_p_polynomial("3*p - 2") == 3 * P - 2 * ONE
        assert parse_p_polynomial("-5*p^2 - 5*p + 1") == -5 * P**2 - 5 * P + ONE
        assert parse_p_polynomial("p^5") == P**5
        assert parse_p_polynomial("1") == ONE
        assert parse_p_polynomial("-p - 1") == -P - ONE

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_p_polynomial("")
        with pytest.raises(ValueError):
            parse_p_polynomial("q + 1")
        with pytest.raises(ValueError):
            parse_p_polynomial("3**p")


class TestCatalogSurface:
    def test_unknown_id(self):
        with pytest.raises(KeyError):
            catalog("nope")

    def test_parameter_handling(self):
        with pytest.raises(ValueError):
            catalog("cocyclic_local")
        with pytest.raises(ValueError):
            catalog("cotype_z3", 4)
        assert catalog("cocyclic_local", 4) == RatFunc(ONE + 5 * X, ONE - X)

    def test_all_ids_construct(self):
        for entry_id in CATALOG_IDS:
            needs_n = entry_id in ("cocyclic_local", "corank2_local", "lattice_local")
            f = catalog(entry_id, 4 if needs_n else None)
            assert not f.den.is_zero()


class TestTableData:
    def test_forty_coefficients(self):
        num = catalog("cotype_z4").num
        monomials = {e[1:] for e in num.terms}
        assert len(monomials) == 40
        # total degree of the numerator in (x, y, z)
        assert max(map(sum, monomials)) == 21
        assert num.terms[(0, 0, 0, 0)] == 1
        # spot entries
        assert num.substitute({"x": 0, "y": 0, "z": 0}) == ONE

    def test_spot_coefficients(self):
        num = catalog("cotype_z4").num
        by_xyz = {}
        for (ep, a, b, c), coef in num.terms.items():
            by_xyz.setdefault((a, b, c), MPoly())
            by_xyz[(a, b, c)] = by_xyz[(a, b, c)] + MPoly.monomial(coef, ep=ep)
        assert by_xyz[(2, 1, 0)] == 3 * P - 2 * ONE
        assert by_xyz[(1, 0, 0)] == 5 * ONE
        assert by_xyz[(11, 7, 3)] == P**5

    def test_denominator_factors(self):
        den = cotype_z4_denominator()
        assert den.degrees() == (8, 12, 8, 4)


class TestFunctionalEquations:
    def test_rank2(self):
        assert functional_equation_check(catalog("cotype_z2"), -X)

    def test_rank3(self):
        assert functional_equation_check(catalog("cotype_z3"), P * X * Y)

    def test_rank4(self):
        assert functional_equation_check(catalog("cotype_z4"), -(P**3) * X * Y * Z)

    def test_wrong_multiplier_rejected(self):
        assert not functional_equation_check(catalog("cotype_z3"), -P * X * Y)


class TestSpecializations:
    def test_rank3_diagonal(self):
        f = specialize(catalog("cotype_z3"), {"y": "x"})
        assert f == catalog("subring_local_z3")
        assert f == RatFunc((ONE + X) ** 2, (ONE - X) * (ONE - P * X**3))

    def test_rank4_diagonal(self):
        assert specialize(catalog("cotype_z4"), {"y": "x", "z": "x"}) == catalog(
            "subring_local_z4"
        )

    def test_rank4_corank1(self):
        assert specialize(catalog("cotype_z4"), {"y": 0, "z": 0}) == RatFunc(
            ONE + 5 * X, ONE - X
        )

    def test_rank4_corank2(self):
        assert specialize(catalog("cotype_z4"), {"y": "x", "z": 0}) == catalog(
            "corank2_local_z4"
        )
        assert catalog("corank2_local", 4) == catalog("corank2_local_z4")

    def test_corank2_local_beyond_rank4(self):
        # the displayed coefficients a(5), b(5) gave 73 and 137 here
        t = expand(catalog("corank2_local", 5), (4, 0, 0))
        ledger = CountLedger()
        for e, expected in ((3, 70), (4, 125)):
            assert t.x_coefficient_at(e, 2) == expected
            assert ledger.census(5, 2, e).h_tilde(2) == expected


class TestSeriesOracles:
    def test_irreducible_z3_series(self):
        t = expand(catalog("irreducible_z3"), (4, 0, 0))
        assert [t.x_coefficient(e) for e in range(5)] == [
            MPoly(),
            MPoly(),
            ONE,
            ONE + P,
            ONE + 3 * P,
        ]

    def test_irreducible_counts(self):
        assert irreducible_count(2, 7, 3) == 1
        assert irreducible_count(2, 7, 0) == 0
        assert irreducible_count(3, 2, 3) == 3
        assert irreducible_count(4, 2, 4) == 7
        assert irreducible_count_poly(4, 4) == ONE + P + P**2
        with pytest.raises(ValueError):
            irreducible_count(5, 2, 4)

    def test_subring_counts(self):
        assert subring_count_series(2, 5, 9) == 1
        assert [subring_count_series(3, 2, e) for e in range(9)] == [
            1, 3, 4, 6, 10, 12, 16, 24, 28,
        ]
        assert [subring_count_series(4, 2, e) for e in range(4)] == [1, 6, 13, 25]

    def test_cocyclic_series(self):
        t = expand(catalog("cocyclic_local", 5), (5, 0, 0))
        m = binomial(5, 2)
        assert t.x_coefficient(0) == ONE
        for e in range(1, 6):
            assert t.x_coefficient(e) == MPoly.const(m)

    def test_lattice_local_series(self):
        # coefficient of x^e counts Hermite forms of determinant p^e
        t = expand(catalog("lattice_local", 2), (5, 0, 0))
        # for rank 2 the count of index p^e is 1 + p + ... + p^e
        for e in range(6):
            assert t.x_coefficient(e) == sum((P**i for i in range(e + 1)), MPoly())

    def test_cotype_z4_low_coefficients(self):
        t = expand(catalog("cotype_z4"), (3, 2, 1), total=3)
        assert t.coefficient(1, 0, 0) == MPoly.const(6)
        assert t.coefficient(1, 1, 0) == MPoly.const(7)
        assert t.coefficient(1, 1, 1) == ONE
        assert t.coefficient(2, 1, 0) == MPoly.const(10) + 4 * P
