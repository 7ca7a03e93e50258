import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from subring_census.hnf import (
    Cotype,
    HnfMatrix,
    SubringMatrix,
    _det_bareiss,
    _prime_power_base,
    canonical_rpstar,
    diagonal_support_corank,
    dump_matrices,
    hnf_from_columns,
    is_subring_matrix,
    load_matrices,
    membership,
    smith_normal_form,
    snf_oracle_minor_gcds,
)


def hnf(rows):
    return HnfMatrix.from_rows(rows)


def random_hnf(rng, n, max_diag=15):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(1, max_diag)
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(rows[i][i])
    return hnf(rows)


class TestHnfMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            hnf([[1, 0], [1, 1]])  # not upper triangular
        with pytest.raises(ValueError):
            hnf([[0, 0], [0, 1]])  # nonpositive diagonal
        with pytest.raises(ValueError):
            hnf([[2, 2], [0, 1]])  # unreduced off-diagonal
        with pytest.raises(ValueError):
            hnf([[1, 0]])  # not square

    def test_det_and_columns(self):
        a = hnf([[2, 1, 1], [0, 2, 1], [0, 0, 1]])
        assert a.det() == 4
        assert a.column(2) == (1, 1, 1)
        assert a.diagonal == (2, 2, 1)


class TestHnfFromColumns:
    def test_recovers_form_after_unimodular_column_operations(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randint(1, 6)
            a = random_hnf(rng, n, max_diag=20)
            cols = [list(c) for c in zip(*a.entries)]
            for _ in range(rng.randint(0, 12)):
                x, y = rng.randrange(n), rng.randrange(n)
                op = rng.random()
                if x != y and op < 0.6:
                    k = rng.randint(-5, 5)
                    cols[x] = [u + k * v for u, v in zip(cols[x], cols[y])]
                elif op < 0.8:
                    cols[x], cols[y] = cols[y], cols[x]
                else:
                    cols[x] = [-u for u in cols[x]]
            assert hnf_from_columns(cols) == a, (a, cols)

    def test_small_cases(self):
        assert hnf_from_columns([(4, 0), (0, 6)]) == hnf([[4, 0], [0, 6]])
        # det 20, gcd(4, 6) = 2, and (4, 6) - (6, 4) = (8, 2) - (10, 0)
        assert hnf_from_columns([(6, 4), (4, 6)]) == hnf([[10, 8], [0, 2]])
        with pytest.raises(ValueError):
            hnf_from_columns([(1, 2), (2, 4)])


class TestMembership:
    def test_identity_matrix(self):
        a = hnf([[1, 0], [0, 1]])
        assert membership(a, (5, -3)) == (5, -3)

    def test_column_vector(self):
        a = hnf([[2, 0, 1], [0, 2, 1], [0, 0, 1]])
        assert membership(a, (1, 1, 1)) == (0, 0, 1)

    def test_absent(self):
        a = hnf([[2, 1, 1], [0, 2, 1], [0, 0, 1]])
        assert membership(a, (1, 0, 0)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            membership(hnf([[1]]), (1, 2))

    @given(st.data())
    @settings(max_examples=150)
    def test_against_cramer_oracle(self, data):
        n = data.draw(st.integers(1, 4))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        a = random_hnf(rng, n, max_diag=8)
        w = [data.draw(st.integers(-12, 12)) for _ in range(n)]
        c = membership(a, w)
        det = a.det()
        cramer = []
        for j in range(n):
            m = [list(row) for row in a.entries]
            for i in range(n):
                m[i][j] = w[i]
            cramer.append(_det_bareiss(m))
        exact = all(v % det == 0 for v in cramer)
        if c is None:
            assert not exact
        else:
            assert exact
            assert tuple(q // det for q in cramer) == c
            for i in range(n):
                assert sum(a.entries[i][j] * c[j] for j in range(n)) == w[i]

    def test_absent_brute_force_box(self):
        # small case: membership failure confirmed by exhausting a complete
        # coefficient box (pivot divisions bound each coefficient).
        a = hnf([[2, 1, 1], [0, 2, 1], [0, 0, 1]])
        w = (1, 0, 0)
        found = []
        for c1 in range(-8, 9):
            for c2 in range(-8, 9):
                for c3 in range(-8, 9):
                    if (
                        2 * c1 + c2 + c3 == w[0]
                        and 2 * c2 + c3 == w[1]
                        and c3 == w[2]
                    ):
                        found.append((c1, c2, c3))
        assert found == []


class TestSubringCertificate:
    def test_identity_any_size(self):
        for n in (1, 2, 4):
            eye = hnf([[1 if i == j else 0 for j in range(n)] for i in range(n)])
            assert is_subring_matrix(eye)

    def test_rank_two_family(self):
        for k in (2, 3, 9, 64):
            assert is_subring_matrix(hnf([[k, 1], [0, 1]]))

    def test_rank_two_rejection(self):
        assert not is_subring_matrix(hnf([[3, 2], [0, 1]]))

    def test_lattice_but_not_subring(self):
        assert not is_subring_matrix(hnf([[2, 1, 1], [0, 2, 1], [0, 0, 1]]))

    def test_certify(self):
        assert SubringMatrix.certify(hnf([[3, 2], [0, 1]])) is None
        m = SubringMatrix.certify(hnf([[3, 1], [0, 1]]))
        assert m is not None and m.det() == 3


class TestSmithForm:
    def test_lattice_example(self):
        a = hnf([[2, 1, 1], [0, 2, 1], [0, 0, 1]])
        assert smith_normal_form(a) == (1, 1, 4)
        assert snf_oracle_minor_gcds(a) == (1, 1, 4)

    def test_already_diagonal(self):
        assert snf_oracle_minor_gcds(hnf([[4, 0, 0], [0, 2, 0], [0, 0, 1]])) == (1, 2, 4)
        assert smith_normal_form(hnf([[4, 0, 0], [0, 2, 0], [0, 0, 1]])) == (1, 2, 4)

    def test_identity(self):
        assert smith_normal_form(hnf([[1, 0], [0, 1]])) == (1, 1)

    def test_rows_as_given(self):
        rows = [[4, 2, 2], [0, 4, 0], [0, 0, 2]]
        assert smith_normal_form(rows) == smith_normal_form(hnf(rows)) == (2, 2, 8)
        assert rows == [[4, 2, 2], [0, 4, 0], [0, 0, 2]]

    def test_rpstar_cotype(self):
        for n, p in ((2, 3), (3, 2), (4, 5)):
            m = canonical_rpstar(n, p)
            assert smith_normal_form(m.hnf) == (1,) + (p,) * (n - 1)

    def test_oracle_size_guard(self):
        eye7 = hnf([[1 if i == j else 0 for j in range(7)] for i in range(7)])
        with pytest.raises(ValueError):
            snf_oracle_minor_gcds(eye7)

    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_elimination_matches_minor_oracle(self, seed, n):
        a = random_hnf(random.Random(seed), n)
        s = smith_normal_form(a)
        assert s == snf_oracle_minor_gcds(a)
        for x, y in zip(s, s[1:]):
            assert y % x == 0
        prod = 1
        for v in s:
            prod *= v
        assert prod == a.det()


class TestCotype:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cotype((2, 4))
        with pytest.raises(ValueError):
            Cotype((0,))
        c = Cotype((4, 2, 1))
        assert c.index == 8
        assert c.corank == 2
        assert c.exponents(2) == (2, 1, 0)
        with pytest.raises(ValueError):
            Cotype((6, 3)).exponents(2)

    def test_rpstar(self):
        m = canonical_rpstar(3, 2)
        assert m.hnf.entries == ((2, 0, 1), (0, 2, 1), (0, 0, 1))
        assert m.cotype().alphas == (2, 2)
        assert m.corank() == 2

    def test_rank_two_rpstar(self):
        assert canonical_rpstar(2, 5).entries == ((5, 1), (0, 1))

    def test_identity_cotype(self):
        eye = SubringMatrix(hnf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert eye.cotype().alphas == (1, 1)
        assert eye.corank() == 0


class TestDiagonalSupport:
    def test_matches_corank(self):
        m = canonical_rpstar(4, 3)
        assert diagonal_support_corank(m) == 3 == m.corank()

    def test_two_support_rows(self):
        m = SubringMatrix(
            hnf([[3, 0, 0, 1], [0, 3, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
        )
        assert diagonal_support_corank(m) == 2 == m.corank()

    def test_identity(self):
        eye = SubringMatrix(hnf([[1, 0], [0, 1]]))
        assert diagonal_support_corank(eye) == 0

    def test_rejects_composite_determinant(self):
        m = SubringMatrix(hnf([[6, 1], [0, 1]]))
        with pytest.raises(ValueError):
            diagonal_support_corank(m)

    @pytest.mark.parametrize(
        "det,support",
        [(10007**3, 1), (1009**4, 1), (10007 * 10009, None), (2 * 10007**2, None)],
    )
    def test_large_determinants(self, det, support):
        m = SubringMatrix(hnf([[det, 1], [0, 1]]))
        if support is None:
            with pytest.raises(ValueError, match="not a prime power"):
                diagonal_support_corank(m)
        else:
            assert diagonal_support_corank(m) == support

    def test_lattice_counterexample_is_not_a_subring(self):
        # the support/corank equality genuinely needs the subring property:
        # this Hermite matrix has two non-unit diagonal entries but corank 1
        a = hnf([[2, 1, 1], [0, 2, 1], [0, 0, 1]])
        assert not is_subring_matrix(a)
        assert smith_normal_form(a) == (1, 1, 4)


def _prime_power_base_by_trial_division(m):
    """The reference: trial division by 2, 3, ... up to the first factor."""
    if m <= 1:
        return None
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else None
        p += 1
    return m


class TestPrimePowerBase:
    def test_matches_trial_division(self):
        for m in range(-2, 10**5 + 1):
            assert _prime_power_base(m) == _prime_power_base_by_trial_division(m), m

    @pytest.mark.parametrize(
        "m,base",
        [(10007**3, 10007), (1009**4, 1009), (10007 * 10009, None), (2 * 10007**2, None),
         (1, None), (2**64, 2), (3**40 * 2, None)],
    )
    def test_large_values(self, m, base):
        assert _prime_power_base(m) == base


class TestTextFormat:
    def test_round_trip(self):
        ms = [canonical_rpstar(3, 2), canonical_rpstar(3, 2)]
        buf = io.StringIO()
        assert dump_matrices(buf, ms, 2) == 2
        buf.seek(0)
        loaded = load_matrices(buf)
        assert len(loaded) == 2
        assert all(p == 2 for _, p in loaded)
        assert loaded[0][0].entries == ms[0].entries

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_matrices(io.StringIO("3\n1 0 0\n"))

    def test_truncated_record(self):
        with pytest.raises(ValueError):
            load_matrices(io.StringIO("3 2\n2 0 1\n"))
