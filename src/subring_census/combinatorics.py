"""Exact combinatorial primitives: binomial coefficients, compositions and
trial division.

Everything here is plain Python integer arithmetic, so counts are exact at
any size.  `smallest_prime_factor` is the package's one trial-division loop:
every primality and factor test goes through it or through `is_prime`.
"""

from __future__ import annotations

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


@functools.cache
def is_prime(m: int) -> bool:
    """Whether m is prime; memoized, since every census cell proves its prime."""
    return m >= 2 and smallest_prime_factor(m) == m
