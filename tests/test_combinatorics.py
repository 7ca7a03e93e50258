import itertools
import math

import pytest
from hypothesis import given, strategies as st

from subring_census.combinatorics import (
    PRIME_TEST_BOUND,
    STRONG_PSEUDOPRIMES,
    binomial,
    compositions,
    is_prime,
    smallest_prime_factor,
    weak_composition_count,
)
from subring_census.enumeration import check_cell


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(6, 2) == 15
    assert binomial(7, 0) == 1
    assert binomial(3, 5) == 0


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


@given(st.integers(0, 60), st.integers(0, 60))
def test_binomial_symmetry(n, k):
    if k <= n:
        assert binomial(n, k) == binomial(n, n - k)


def test_compositions_strict_unique_split():
    assert compositions(2, 2, strict=True) == [(1, 1)]


def test_compositions_weak_enumeration():
    assert compositions(3, 2) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_compositions_strict_pair_count():
    for e in range(2, 12):
        assert len(compositions(e, 2, strict=True)) == e - 1


def test_compositions_lex_order():
    parts = compositions(6, 3)
    assert all(type(c) is tuple for c in parts)
    assert parts == sorted(parts)


def test_compositions_zero_parts():
    assert compositions(0, 0) == [()]
    assert compositions(2, 0) == []


@given(st.integers(0, 14), st.integers(1, 6))
def test_composition_counts(e, m):
    assert len(compositions(e, m, strict=False)) == binomial(e + m - 1, m - 1)
    if e >= 1:
        assert len(compositions(e, m, strict=True)) == binomial(e - 1, m - 1)
    else:
        assert compositions(e, m, strict=True) == []


@pytest.mark.parametrize("strict", [False, True])
def test_compositions_match_product_filter(strict):
    lo = 1 if strict else 0
    for total in range(10):
        for parts in range(5):
            # product runs in lexicographic order, so the filter keeps it
            oracle = [
                c
                for c in itertools.product(range(lo, total + 1), repeat=parts)
                if sum(c) == total
            ]
            assert compositions(total, parts, strict=strict) == oracle, (total, parts)


def test_weak_composition_count_matches_product_filter():
    for total in range(10):
        for parts in range(6):
            every = [
                c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total
            ]
            assert weak_composition_count(total, parts) == len(every), (total, parts)
            for k in range(parts + 2):
                some = [c for c in every if parts - c.count(0) == k]
                assert weak_composition_count(total, parts, k) == len(some), (total, parts, k)


def test_weak_composition_count_rejects_negative_arguments():
    for args in ((-1, 2), (2, -1), (2, 2, -1)):
        with pytest.raises(ValueError):
            weak_composition_count(*args)


def _least_divisors(limit: int) -> list[int]:
    """least[j] is the first d >= 2 dividing j, marked by every d in turn."""
    least = [0] * (limit + 1)
    for d in range(2, limit + 1):
        for j in range(d, limit + 1, d):
            if not least[j]:
                least[j] = d
    return least


def test_smallest_prime_factor_matches_brute_force():
    least = _least_divisors(10**5)
    assert all(smallest_prime_factor(m) == least[m] for m in range(2, 10**5 + 1))
    assert [m for m in range(-3, 2000) if is_prime(m)] == [
        m for m in range(2, 2000) if least[m] == m
    ]


def test_prime_tests_below_two():
    for m in range(-3, 2):
        assert not is_prime(m)
        with pytest.raises(ValueError):
            smallest_prime_factor(m)


def test_is_prime_matches_trial_division():
    assert all(is_prime(m) == (smallest_prime_factor(m) == m) for m in range(2, 10**5))


@pytest.mark.parametrize(
    "m, factors",
    [
        (2047, (23, 89)),
        (1373653, (829, 1657)),
        (25326001, (2251, 11251)),
        (3215031751, (151, 751, 28351)),
        (2152302898747, (6763, 10627, 29947)),
        (3474749660383, (1303, 16927, 157543)),
        (341550071728321, (10670053, 32010157)),
        # the least strong pseudoprime to the bases 2..31, and to 2..37
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
    ],
)
def test_is_prime_refuses_strong_pseudoprimes(m, factors):
    # each is the least composite that passes the bases it is listed for, so
    # is_prime must take the next base at m itself
    assert m in STRONG_PSEUDOPRIMES and math.prod(factors) == m and not is_prime(m)


def test_primality_bound_is_refused():
    # the least strong pseudoprime to every base 2..41, where the test stops
    # being proven; the Mersenne primes 2^31 - 1 and 2^61 - 1 lie below it
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and not is_prime(2**59 - 1)
    for m in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2):
        with pytest.raises(ValueError, match="past the proven primality test"):
            is_prime(m)
        with pytest.raises(ValueError, match=r"^\d+ is at or above \d+, past .*test$"):
            check_cell(3, m, 1)
