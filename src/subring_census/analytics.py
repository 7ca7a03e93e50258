"""Floating-point constants with explicit error enclosures.

Every value leaves this module as a BoundedValue: a double plus an absolute
error bound accumulated interval-style (truncated Euler tails, series tails,
and rounding).  Per-prime local factors are evaluated as exact rationals and
rounded once, so no cancellation enters the products.

Tail model for Euler products: each local factor is 1 + c(p)/p^t with
|c(p)| <= tail_constant for all p; the log of the truncated tail is enclosed
by comparison with sum_{m > P} m^{-t} <= P^(1-t)/(t-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .catalog import catalog
from .combinatorics import binomial
from .counting import corank2_formula_coefficients, corank3_formula_coefficients

_EPS = 2.0**-52


@dataclass(frozen=True)
class BoundedValue:
    """A float together with an absolute error bound."""

    value: float
    bound: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or not math.isfinite(self.bound) or self.bound < 0:
            raise ValueError("bounded value needs finite value and nonnegative bound")

    @classmethod
    def exact(cls, x: Fraction | int) -> "BoundedValue":
        v = float(x)
        return cls(v, 2 * math.ulp(abs(v) or 1.0))

    def contains(self, target: float, dilation: float = 0.0) -> bool:
        """Whether target (dilated by e.g. its quoting precision) meets the interval."""
        return abs(self.value - target) <= self.bound + dilation

    def __add__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        other = _coerce(other)
        v = self.value + other.value
        return BoundedValue(v, self.bound + other.bound + 2 * math.ulp(abs(v) or 1.0))

    __radd__ = __add__

    def __sub__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        other = _coerce(other)
        v = self.value - other.value
        return BoundedValue(v, self.bound + other.bound + 2 * math.ulp(abs(v) or 1.0))

    def __rsub__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        return _coerce(other) - self

    def __mul__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        other = _coerce(other)
        v = self.value * other.value
        b = (
            abs(self.value) * other.bound
            + abs(other.value) * self.bound
            + self.bound * other.bound
            + 2 * math.ulp(abs(v) or 1.0)
        )
        return BoundedValue(v, b)

    __rmul__ = __mul__

    def __truediv__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        other = _coerce(other)
        if other.bound >= abs(other.value) / 2:
            raise ValueError("division by an interval too close to zero")
        v = self.value / other.value
        denom = abs(other.value) - other.bound
        b = (self.bound + abs(v) * other.bound) / denom + 2 * math.ulp(abs(v) or 1.0)
        return BoundedValue(v, b)

    def __rtruediv__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "BoundedValue":
        out = BoundedValue(1.0, 0.0)
        for _ in range(k):
            out = out * self
        return out


def _coerce(x) -> BoundedValue:
    if isinstance(x, BoundedValue):
        return x
    if isinstance(x, int):
        return BoundedValue.exact(x)
    return BoundedValue(float(x), math.ulp(abs(float(x)) or 1.0))


_sieve_cache = bytearray()


def _sieve(limit: int) -> bytearray:
    """Prime flag table for 0..limit, cached at the largest size seen."""
    global _sieve_cache
    if len(_sieve_cache) > limit:
        return _sieve_cache
    table = bytearray(b"\x01") * (limit + 1)
    table[0:2] = b"\x00\x00"
    for q in range(2, int(limit**0.5) + 1):
        if table[q]:
            start = q * q
            table[start : limit + 1 : q] = b"\x00" * ((limit - start) // q + 1)
    _sieve_cache = table
    return table


def iter_primes(limit: int):
    """Primes up to limit in ascending order, from the cached sieve."""
    table = _sieve(limit)
    for m in range(2, limit + 1):
        if table[m]:
            yield m


def primes_up_to(limit: int) -> list[int]:
    return list(iter_primes(limit))


def zeta_int(s: int, terms: int = 10**4) -> BoundedValue:
    """zeta(s) at an integer s >= 2 by partial sum plus a two-sided integral tail."""
    if s < 2:
        raise ValueError("need s >= 2")
    partial = 0.0
    for m in range(terms, 0, -1):  # ascending magnitude improves rounding
        partial += float(m) ** (-s)
    hi = terms ** (1 - s) / (s - 1)
    lo = (terms + 1) ** (1 - s) / (s - 1)
    value = partial + (hi + lo) / 2
    rounding = (terms + 4) * _EPS * value
    return BoundedValue(value, (hi - lo) / 2 + rounding)


class TailModelError(RuntimeError):
    """A sampled local factor deviated more than the declared tail model."""


class EulerProductError(RuntimeError):
    """The requested tolerance is unreachable within the cutoff cap."""


@dataclass(frozen=True)
class EulerProductSpec:
    """Product over primes of an exactly-evaluable local factor.

    factor(p) must return the exact value as a Fraction or an integer
    (numerator, denominator) pair; the deviation |factor(p) - 1| must obey
    tail_constant * p^(-tail_exponent) for every prime (checked for every
    sampled prime during evaluation).
    """

    name: str
    factor: Callable[[int], "Fraction | tuple[int, int]"]
    tail_exponent: int
    tail_constant: float
    cutoff: int = 10**6

    @classmethod
    def from_inverse_p_polynomial(
        cls, name: str, coefficients: list[int], cutoff: int = 10**6
    ) -> "EulerProductSpec":
        """Factor 1 + sum_j coefficients[j] p^-j (index 0 must hold 1).

        The tail constant sum_{j >= t} |a_j| 2^(t-j) is rigorous for p >= 2.
        """
        coeffs = [int(c) for c in coefficients]
        if not coeffs or coeffs[0] != 1:
            raise ValueError("coefficient list must start with the constant term 1")
        t = next((j for j in range(1, len(coeffs)) if coeffs[j] != 0), None)
        if t is None:
            raise ValueError("deviation polynomial is identically zero")
        c_bound = float(sum(abs(coeffs[j]) * Fraction(2) ** (t - j) for j in range(t, len(coeffs))))
        degree = len(coeffs) - 1

        def factor(p: int, coeffs=tuple(coeffs)) -> tuple[int, int]:
            num = 0
            for c in coeffs:
                num = num * p + c
            return num, p**degree

        return cls(name=name, factor=factor, tail_exponent=t, tail_constant=c_bound, cutoff=cutoff)


def _tail_log_bound(spec: EulerProductSpec, cutoff: int) -> float:
    t = spec.tail_exponent
    return 2.0 * spec.tail_constant * cutoff ** (1 - t) / (t - 1)


def euler_product(spec: EulerProductSpec, target: float | None = None) -> BoundedValue:
    """Evaluate the product over primes with a rigorous enclosure.

    The cutoff doubles (from spec.cutoff's scale) until the tail enclosure
    alone meets the target, capped at 2^27; per-prime deviations are checked
    against the tail model and a violation raises TailModelError.
    """
    if spec.tail_exponent < 2:
        raise ValueError("tail exponent must be at least 2")
    cutoff = spec.cutoff
    if target is not None:
        cutoff = min(cutoff, 1 << 14)
        while _tail_log_bound(spec, cutoff) > target / 2 and cutoff < (1 << 27):
            cutoff *= 2
        if _tail_log_bound(spec, cutoff) > target / 2:
            raise EulerProductError(
                f"{spec.name}: cannot reach tail target {target} below the cutoff cap"
            )
    value = 1.0
    count = 0
    t = spec.tail_exponent
    c = spec.tail_constant * (1 + 1e-12)
    factor = spec.factor
    for p in iter_primes(cutoff):
        f = factor(p)
        if type(f) is tuple:
            fv = f[0] / f[1]
        else:
            fv = f.numerator / f.denominator
        if abs(fv - 1.0) > c * float(p) ** (-t) + 1e-15:
            raise TailModelError(f"{spec.name}: factor at p={p} violates the 1 + c/p^{t} model")
        value *= fv
        count += 1
    tail = _tail_log_bound(spec, cutoff)
    bound = abs(value) * math.expm1(tail) + abs(value) * (2 * count + 4) * _EPS
    return BoundedValue(value, bound)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_pow(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _spec_from_u_polynomial(name: str, coeffs: list[int]) -> EulerProductSpec:
    return EulerProductSpec.from_inverse_p_polynomial(name, list(coeffs))


def corank_probability(n: int, k: int, target: float | None = None) -> BoundedValue:
    """Limiting proportion of subrings of Z^n with corank exactly k (n <= 4).

    target bounds the truncation tail on the log scale; the defaults keep the
    absolute enclosure of each probability below roughly 1e-6.
    """
    if n == 2:
        if k != 1:
            raise ValueError("every proper subring of Z^2 has corank 1")
        return BoundedValue(1.0, 0.0)
    if n == 3:
        p31 = zeta_int(2) * euler_product(
            _spec_from_u_polynomial("corank1-z3", _poly_mul(_poly_pow([1, -1], 2), [1, 2])),
            target=target or 2e-6,
        )
        if k == 1:
            return p31
        if k == 2:
            return 1 - p31
        raise ValueError("proper subrings of Z^3 have corank 1 or 2")
    if n == 4:
        z2 = zeta_int(2)
        p41 = z2**3 * euler_product(
            _spec_from_u_polynomial("corank1-z4", _poly_mul(_poly_pow([1, -1], 5), [1, 5])),
            target=target or 2e-5,
        )
        if k == 1:
            return p41
        upto2 = z2**4 * euler_product(
            _spec_from_u_polynomial(
                "corank12-z4",
                _poly_mul(_poly_mul(_poly_pow([1, -1], 5), [1, 1]), [1, 4, 6]),
            ),
            target=target or 1e-5,
        )
        if k == 2:
            return upto2 - p41
        if k == 3:
            return 1 - upto2
        raise ValueError("proper subrings of Z^4 have corank 1, 2 or 3")
    raise ValueError("absolute corank probabilities are known only for n <= 4")


def _corank2_deviation(n: int) -> list[int]:
    a, b = corank2_formula_coefficients(n)
    m = binomial(n, 2)
    quartic = [1, m - 2, 2 * a + b - m, -(m - 2), -(2 * a + b - m + 1)]
    return _poly_mul(_poly_pow([1, -1], m - 2), quartic)


def _corank3_deviation(n: int) -> list[int]:
    a, b = corank2_formula_coefficients(n)
    c, d = corank3_formula_coefficients(n)
    m = binomial(n, 2)
    quartic = [
        1,
        m - 4,
        6 + 2 * a + b + c - 3 * m,
        -4 - 4 * a - 2 * b + 6 * c + 3 * d + 3 * m,
        1 + 2 * a + b - 7 * c + 2 * d - m,
    ]
    return _poly_mul(_poly_pow([1, -1], m - 4), quartic)


def tauberian_constant(n: int, k: int, target: float = 1e-4) -> BoundedValue:
    """Leading constant of the corank <= k accumulation growing like
    C X (log X)^(C(n,2) - 1), for k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError("constants are computed only for corank 1, 2, 3")
    if n <= k:
        raise ValueError("need n > k")
    m = binomial(n, 2)
    lead = BoundedValue.exact(Fraction(1, math.factorial(m - 1)))
    if k == 1:
        dev = _poly_mul(_poly_pow([1, -1], m - 1), [1, m - 1])
        return lead * euler_product(
            _spec_from_u_polynomial(f"cocyclic-constant-n{n}", dev), target=target
        )
    if k == 2:
        prod = euler_product(
            _spec_from_u_polynomial(f"corank2-constant-n{n}", _corank2_deviation(n)), target=target
        )
        return zeta_int(2) * lead * prod
    prod = euler_product(
        _spec_from_u_polynomial(f"corank3-constant-n{n}", _corank3_deviation(n)), target=target
    )
    return lead * prod


def tauberian_ratio(n: int, k_num: int, k_den: int, target: float = 1e-4) -> BoundedValue:
    return tauberian_constant(n, k_num, target) / tauberian_constant(n, k_den, target)


def _lattice_factor(n: int, k: int, p: int) -> Fraction:
    """Local probability that a cokernel has rank at most k, exactly.

    Products over j are truncated once p^-j < 2^-70; the dropped factors are
    within 2^-69 of 1 and the caller absorbs that into its bound.
    """
    jmax = min(n, int(70 / math.log2(p)) + 1)
    partial: list[Fraction] = [Fraction(1)]
    for j in range(1, jmax + 1):
        partial.append(partial[-1] * (1 - Fraction(1, p**j)))

    def prod_to(j: int) -> Fraction:
        return partial[min(j, jmax)]

    total = Fraction(0)
    for i in range(k + 1):
        denom = Fraction(p) ** (i * i) * prod_to(i) ** 2 * prod_to(n - i)
        total += 1 / denom
    return prod_to(n) ** 2 * total


def lattice_baseline(n: int, k: int, target: float = 1e-5) -> BoundedValue:
    """Proportion of sublattices of Z^n whose cokernel has rank at most k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    t = (k + 1) * (k + 1)
    sample = abs(float(_lattice_factor(n, k, 2)) - 1.0)
    c = max(sample * 2.0**t * 4.0, 1.0)
    spec = EulerProductSpec(
        name=f"lattice-corank{k}-n{n}",
        factor=lambda p: _lattice_factor(n, k, p),
        tail_exponent=t,
        tail_constant=c,
        cutoff=10**4,
    )
    out = euler_product(spec, target=target)
    return BoundedValue(out.value, out.bound + 1e-15)


def abelian_p_group_aut_order(p: int, partition: tuple[int, ...]) -> int:
    """Order of the automorphism group of the abelian p-group of the given type.

    Classical formula in terms of the ascending exponent list e_1 <= ... <= e_r
    with runs [c_k, d_k] of equal exponents:
        prod_k (p^{d_k} - p^{k - 1})
      * prod_j p^{e_j (r - d_j)}
      * prod_i p^{(e_i - 1)(r - c_i + 1)}
    """
    if any(a < 1 for a in partition):
        raise ValueError("partition parts must be >= 1")
    e = sorted(partition)
    r = len(e)
    if r == 0:
        return 1
    d = [max(l for l in range(r) if e[l] == e[kk]) + 1 for kk in range(r)]
    c = [min(l for l in range(r) if e[l] == e[kk]) + 1 for kk in range(r)]
    out = 1
    for kk in range(r):
        out *= p ** d[kk] - p**kk
    for j in range(r):
        out *= p ** (e[j] * (r - d[j]))
    for i in range(r):
        out *= p ** ((e[i] - 1) * (r - c[i] + 1))
    return out


def cohen_lenstra_mass(n: int, p: int, partition: tuple[int, ...]) -> BoundedValue:
    """Probability of the abelian p-group of the given type under the rank <= n
    cokernel distribution: (1/#Aut) prod_{i<=n}(1-p^-i) prod_{n-r<i<=n}(1-p^-i)."""
    r = len(partition)
    if r > n:
        raise ValueError("partition rank exceeds n")
    aut = abelian_p_group_aut_order(p, partition) if partition else 1
    value = Fraction(1, aut)
    for i in range(1, n + 1):
        value *= 1 - Fraction(1, p**i)
    for i in range(n - r + 1, n + 1):
        value *= 1 - Fraction(1, p**i)
    return BoundedValue.exact(value)


def coprime_index_ratio_exact(n: int, p: int) -> Fraction:
    """Exact limiting proportion of subrings of Z^n with index coprime to p.

    This is the reciprocal of the local zeta factor at its accumulation point
    s = 1, available only while that point is known (n <= 4).
    """
    if n < 2 or n > 4:
        raise ValueError("coprime-index proportion is known only for 2 <= n <= 4")
    entry = {2: "subring_local_z2", 3: "subring_local_z3", 4: "subring_local_z4"}[n]
    value = catalog(entry).eval(p=p, x=Fraction(1, p))
    return 1 / value


def a_lower(n: int) -> Fraction:
    """Exact growth exponent max_d (d(n-1-d) + 1) / (n-1+d) over integer d."""
    if n < 2:
        raise ValueError("need n >= 2 (the exponent formula divides by n-1+d)")
    return max(Fraction(d * (n - 1 - d) + 1, n - 1 + d) for d in range(n))
