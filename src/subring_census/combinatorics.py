"""Exact combinatorial primitives: binomial coefficients, compositions, trial
division and a primality test.

Everything here is plain Python integer arithmetic, so counts are exact at
any size.  `smallest_prime_factor` is the package's one trial-division loop,
and `is_prime` its one primality test: Miller-Rabin to the prime bases
2..41, which is deterministic below PRIME_TEST_BOUND (J. Sorenson and
J. Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
2017), so a prime of any size up to there is proven in at most thirteen
modular powers, not in sqrt(m) divisions.  Every primality and factor test
goes through one of the two.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    if k > n:
        return 0
    return math.comb(n, k)


def compositions(total: int, parts: int, strict: bool = False) -> list[tuple[int, ...]]:
    """All compositions of ``total`` into ``parts`` parts, lexicographic order.

    Each composition is a plain tuple of parts.  Weak compositions allow zero
    parts; strict ones require every part >= 1.  The lexicographic order is a
    documented contract: the canonical matrix order of the enumeration takes
    diagonals in it.

    A strict composition is a choice of parts-1 cut points in 1..total-1,
    and a weak one of total into parts is a strict one of total + parts with
    1 taken from each part.  Partial sums are cut points, so the
    lexicographic order of `itertools.combinations` is that of the parts.
    """
    if total < 0 or parts < 0:
        raise ValueError("compositions requires nonnegative arguments")
    if parts == 0:
        return [()] if total == 0 else []
    shift = 0 if strict else 1
    top = total + shift * parts
    if top < parts:
        return []
    return [
        tuple(b - a - shift for a, b in zip((0, *cuts), (*cuts, top)))
        for cuts in itertools.combinations(range(1, top), parts - 1)
    ]


def smallest_prime_factor(m: int) -> int:
    """The least prime dividing m >= 2, by trial division up to isqrt(m)."""
    if m < 2:
        raise ValueError("smallest_prime_factor requires m >= 2")
    for f in range(2, math.isqrt(m) + 1):
        if m % f == 0:
            return f
    return m


# the prime bases of `is_prime`, and STRONG_PSEUDOPRIMES[k], the least odd
# composite that is a strong probable prime to each of the first k + 1 bases
# (OEIS A014233): so below it those bases decide primality
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
PRIME_TEST_BOUND = STRONG_PSEUDOPRIMES[-1]


@functools.cache
def is_prime(m: int) -> bool:
    """Whether m is prime, for m < PRIME_TEST_BOUND (ValueError at or above it).

    A factor among PRIME_BASES decides m; otherwise m is prime when it is a
    strong probable prime to each of the first k + 1 bases, k the number of
    STRONG_PSEUDOPRIMES at most m: a small m takes one or two modular
    powers, and none takes more than thirteen.  Memoized, since every census
    cell proves its prime.
    """
    if m >= PRIME_TEST_BOUND:
        raise ValueError(f"{m} is at or above {PRIME_TEST_BOUND}, past the proven primality test")
    if m < 2:
        return False
    for a in PRIME_BASES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES[: bisect.bisect_right(STRONG_PSEUDOPRIMES, m) + 1]:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True
