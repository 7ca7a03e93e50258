"""Floating-point constants with explicit error enclosures.

Every value leaves this module as a BoundedValue: a double plus an absolute
error bound accumulated interval-style (truncated Euler tails, series tails,
and rounding).  Per-prime local factors are evaluated as exact rationals and
rounded once, so no cancellation enters the products.

Euler products with a polynomial local factor f(u) = 1 + sum_j a_j u^j at
u = 1/p (a_1 = 0) are split at a head cutoff Q (H. Cohen, "High precision
computation of Hardy-Littlewood constants", 1991).  The head, the product
over p <= Q, is exact: an integer fraction rounded once.  The tail is
exp(sum_{k=2..K} b_k P_Q(k)), with b_k the exact log-series coefficients of
f and P_Q(k) = sum_{p>Q} p^-k = sum_m mu(m)/m log zeta_Q(mk), with mu
factored by `combinatorics.smallest_prime_factor`, where zeta_Q(s) =
zeta(s) prod_{p<=Q} (1 - p^-s) and zeta comes from Euler-Maclaurin
summation.  Q and K depend on the coefficients alone: for
the radius r0 = 2^-j with delta = sum |a_j| r0^j <= 1/2 the Cauchy bound
|b_k| <= -log(1 - delta) r0^-k <= log(2) r0^-k holds, Q = 64/r0, and K is
the first order whose dropped terms k > K sum below 2^-61 on the log scale.
The bound covers the dropped k and m terms, the error of zeta and the
rounding of every float operation, with 2 ulp allowed for each libm call.

Any other factor is opaque and keeps the comparison-tail loop, the slow
oracle of the series path: each local factor is 1 + c(p)/p^t with
|c(p)| <= tail_constant for all p, and the log of the tail past the cutoff P
is enclosed by comparison with sum_{m > P} m^{-t} <= P^(1-t)/(t-1).

The Cohen-Lenstra side of the comparison is `lattice_baseline`, the share
of sublattices of Z^n whose cokernel has rank at most k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .catalog import catalog
from .combinatorics import binomial, smallest_prime_factor
from .counting import corank2_formula_coefficients, corank3_formula_coefficients
from .polynomials import X

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
        if k < 0:
            raise ValueError("negative powers are not supported; divide instead")
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


# B_2j for j = 1..10 as (numerator, denominator).
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
    (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
)
_EM_START = 16


def _zeta_minus_one(s: int) -> BoundedValue:
    """zeta(s) - 1 at an integer s >= 2 by Euler-Maclaurin summation from N = 16:

        zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
                  + sum_{j=1..9} B_2j/(2j)! s(s+1)...(s+2j-2) N^(1-s-2j) + R.

    For real s the remainder R is at most the first omitted term (j = 10) in
    absolute value.  Every term is a rational rounded once, and fsum rounds
    their sum once.  Leaving out the term 1 keeps the relative precision of
    zeta(s) - 1, which is about 2^-s.
    """
    n = _EM_START
    terms = [1 / m**s for m in range(2, n)]
    terms.append(1 / ((s - 1) * n ** (s - 1)))
    terms.append(1 / (2 * n**s))
    rising = s  # s(s+1)...(s+2j-2)
    for j, (num, den) in enumerate(_BERNOULLI, start=1):
        terms.append(num * rising / (den * math.factorial(2 * j) * n ** (s + 2 * j - 1)))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    remainder = abs(terms.pop())
    value = math.fsum(terms)
    return BoundedValue(value, remainder * (1 + _EPS) + _EPS * math.fsum(map(abs, terms)))


def zeta_int(s: int) -> BoundedValue:
    """zeta(s) at an integer s >= 2, by Euler-Maclaurin summation."""
    if s < 2:
        raise ValueError("need s >= 2")
    tail = _zeta_minus_one(s)
    value = 1.0 + tail.value
    return BoundedValue(value, tail.bound + _EPS * value)


# Relative error allowed for each log, log1p or exp of the C library (2 ulp).
_LIBM = 2 * _EPS
# Log-scale budget for the series terms one accelerated product drops.
_LOG_ETA = 2.0**-60
# The head cutoff is Q = 2^6 / r0, so the log series converges like 64^-k past it.
_HEAD_MARGIN = 6


def _mobius(m: int) -> int:
    out = 1
    while m > 1:
        q = smallest_prime_factor(m)
        m //= q
        if m % q == 0:
            return 0
        out = -out
    return out


def _log_zeta_rough(sigma: int, primes: tuple[int, ...]) -> tuple[float, float, float]:
    """log zeta_Q(sigma) = log zeta(sigma) + sum_{p <= Q} log(1 - p^-sigma), with Q
    the last of primes, as (value, error from zeta, rounding error)."""
    z = _zeta_minus_one(sigma)
    terms = [math.log1p(z.value)] + [math.log1p(-1 / p**sigma) for p in primes]
    value = math.fsum(terms)
    rounding = (_EPS + _LIBM) * math.fsum(map(abs, terms)) + _EPS * abs(value)
    return value, z.bound / (1 + z.value - z.bound), rounding


def _prime_zeta_parts(s: int, cutoff: int, tol: float, log_zeta) -> tuple[float, float, float, float]:
    """P_Q(s) = sum_{p > Q} p^-s = sum_m mu(m)/m log zeta_Q(ms) for Q = cutoff >= 2,
    as (value, tail, error from zeta, rounding error).

    The terms m > M are dropped for the first M whose bound is at most tol:
    log zeta_Q(t) <= Q^(1-t) / ((t-1)(1-Q^-t)) and Q^-s <= 1/4 give
    sum_{m>M} log zeta_Q(ms)/m <= (16/9) Q^(1-(M+1)s) / ((M+1)((M+1)s-1)).
    """

    def dropped(m: int) -> float:
        return 16 / 9 * float(cutoff) ** (1 - (m + 1) * s) / ((m + 1) * ((m + 1) * s - 1))

    terms_m = 1
    while dropped(terms_m) > tol:
        terms_m += 1
    terms, zeta, rounding = [], 0.0, 0.0
    for m in range(1, terms_m + 1):
        mu = _mobius(m)
        if mu:
            value, z, r = log_zeta(m * s)
            terms.append(mu * value / m)
            zeta += z / m
            rounding += (r + _EPS * abs(value)) / m
    value = math.fsum(terms)
    return value, dropped(terms_m), zeta, rounding + _EPS * abs(value)


def prime_zeta_tail(s: int, cutoff: int) -> BoundedValue:
    """P_Q(s) = sum over primes p > cutoff of p^-s, for s >= 2 and cutoff >= 2."""
    if s < 2 or cutoff < 2:
        raise ValueError("need s >= 2 and cutoff >= 2")
    primes = tuple(iter_primes(cutoff))
    log_zeta = functools.cache(functools.partial(_log_zeta_rough, primes=primes))
    value, *parts = _prime_zeta_parts(s, cutoff, _LOG_ETA, log_zeta)
    return BoundedValue(value, sum(parts))


class TailModelError(RuntimeError):
    """A sampled local factor deviated more than the declared tail model."""


@dataclass(frozen=True)
class EulerProductSpec:
    """Product over primes of an exactly-evaluable local factor.

    factor(p) must return the exact value as a Fraction or an integer
    (numerator, denominator) pair; the deviation |factor(p) - 1| must obey
    tail_constant * p^(-tail_exponent) for every prime (checked for every
    sampled prime during evaluation).  coefficients, when set, are the
    integers a_j of factor(p) = sum_j a_j p^-j and select the series path;
    cutoff is read only by the comparison-tail loop.
    """

    name: str
    factor: Callable[[int], "Fraction | tuple[int, int]"]
    tail_exponent: int
    tail_constant: float
    cutoff: int = 10**6
    coefficients: tuple[int, ...] | None = None

    @classmethod
    def from_inverse_p_polynomial(cls, name: str, coefficients: list[int]) -> "EulerProductSpec":
        """Factor 1 + sum_j coefficients[j] p^-j (index 0 must hold 1).

        The tail constant sum_{j >= t} |a_j| 2^(t-j) is rigorous for p >= 2.
        """
        coeffs = tuple(int(c) for c in coefficients)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("coefficient list must start with the constant term 1")
        t = next((j for j in range(1, len(coeffs)) if coeffs[j] != 0), None)
        if t is None:
            raise ValueError("deviation polynomial is identically zero")
        c_bound = float(sum(abs(coeffs[j]) * Fraction(2) ** (t - j) for j in range(t, len(coeffs))))
        degree = len(coeffs) - 1

        def factor(p: int) -> tuple[int, int]:
            num = 0
            for c in coeffs:
                num = num * p + c
            return num, p**degree

        return cls(name=name, factor=factor, tail_exponent=t, tail_constant=c_bound,
                   coefficients=coeffs)


def _checked_factor(spec: EulerProductSpec, p: int, c: float) -> tuple[tuple[int, int], float]:
    """factor(p) as an integer pair and a float, checked against the tail model
    |factor(p) - 1| <= c p^-t."""
    f = spec.factor(p)
    if type(f) is not tuple:
        f = (f.numerator, f.denominator)
    fv = f[0] / f[1]
    if abs(fv - 1.0) > c * float(p) ** (-spec.tail_exponent) + 1e-15:
        raise TailModelError(
            f"{spec.name}: factor at p={p} violates the 1 + c/p^{spec.tail_exponent} model"
        )
    return f, fv


def _tail_log_bound(spec: EulerProductSpec, cutoff: int) -> float:
    t = spec.tail_exponent
    return 2.0 * spec.tail_constant * cutoff ** (1 - t) / (t - 1)


def euler_product(spec: EulerProductSpec, stats: dict | None = None) -> BoundedValue:
    """Evaluate the product over primes with a rigorous enclosure.

    A spec with coefficients takes the exact product over p <= Q and closes
    it with the log series (see the module docstring).  Any other spec takes
    the comparison-tail loop over p <= spec.cutoff.  A passed stats dict
    receives head_cutoff, head_primes, series_terms (the loop cutoff on the
    loop path) and the parts tail_bound, zeta_bound and rounding_bound of
    the bound.  Whether an enclosure is tight enough is for the caller to
    judge.  A series product whose value or error leaves float range, as
    tauberian_constant(12, 3) does, raises ValueError naming the spec.
    """
    if spec.tail_exponent < 2:
        raise ValueError("tail exponent must be at least 2")
    if spec.coefficients is None:
        return _loop_product(spec, stats)
    return _series_product(spec, stats)


def _loop_product(spec: EulerProductSpec, stats: dict | None) -> BoundedValue:
    """The product over p <= cutoff, with the log of the rest bounded by comparison."""
    cutoff = spec.cutoff
    value = 1.0
    count = 0
    c = spec.tail_constant * (1 + 1e-12)
    for p in iter_primes(cutoff):
        value *= _checked_factor(spec, p, c)[1]
        count += 1
    tail = abs(value) * math.expm1(_tail_log_bound(spec, cutoff))
    rounding = abs(value) * (2 * count + 4) * _EPS
    if stats is not None:
        stats.update(head_cutoff=cutoff, head_primes=count, series_terms=cutoff,
                     tail_bound=tail, zeta_bound=0.0, rounding_bound=rounding)
    return BoundedValue(value, tail + rounding)


def _log_coefficients(coeffs: tuple[int, ...], terms: int) -> list[Fraction]:
    """b_0..b_terms of log(1 + sum_j a_j u^j) = sum_k b_k u^k, from
    k b_k = k a_k - sum_{j<k} j b_j a_(k-j)."""
    a = list(coeffs) + [0] * terms
    b = [Fraction(0)] * (terms + 1)
    for k in range(1, terms + 1):
        b[k] = a[k] - Fraction(sum(j * b[j] * a[k - j] for j in range(1, k))) / k
    return b


def _tree_product(values: list[int]) -> int:
    """The product of values, multiplied pairwise in a balanced tree.

    Each level halves the list, so the factors of every multiplication are
    of about equal size; a left-to-right product instead multiplies a
    growing integer by each small one in turn, which is quadratic in the
    size of the result.  The integer is the same either way.
    """
    while len(values) > 1:
        values = [math.prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return values[0] if values else 1


def _series_product(spec: EulerProductSpec, stats: dict | None) -> BoundedValue:
    coeffs = spec.coefficients
    d = len(coeffs) - 1
    # r0 = 2^-j, the largest with delta = sum |a_i| r0^i <= 1/2 (an integer test).
    j = 1
    while 2 * sum(abs(a) << (j * (d - i)) for i, a in enumerate(coeffs) if i) > 1 << (j * d):
        j += 1
    cutoff = 1 << (j + _HEAD_MARGIN)
    # |b_k| <= -log(1 - delta) r0^-k <= log(2) r0^-k (Cauchy) and
    # P_Q(k) <= Q^(1-k)/(k-1) bound the terms k > K by log(2) Q x^(K+1)/(K(1-x)).
    x = 2.0**-_HEAD_MARGIN

    def dropped(k: int) -> float:
        return math.log(2) * cutoff * x ** (k + 1) / (k * (1 - x)) * (1 + _EPS)

    terms_k = 2
    while dropped(terms_k) > _LOG_ETA / 2:
        terms_k += 1
    tail = dropped(terms_k)

    primes = list(iter_primes(cutoff))
    c = spec.tail_constant * (1 + 1e-12)
    factors = [_checked_factor(spec, p, c)[0] for p in primes]
    num = _tree_product([f[0] for f in factors])
    den = _tree_product([f[1] for f in factors])

    b = _log_coefficients(coeffs, terms_k)
    log_zeta = functools.cache(functools.partial(_log_zeta_rough, primes=tuple(primes)))
    terms, zeta, rounding = [], 0.0, 0.0
    for k in range(2, terms_k + 1):
        if b[k] == 0:
            continue
        bk = float(b[k])
        weight = abs(bk) * (1 + _EPS)
        pv, pt, pz, pr = _prime_zeta_parts(k, cutoff, _LOG_ETA / (2 * terms_k * weight), log_zeta)
        terms.append(bk * pv)
        tail += weight * pt
        zeta += weight * pz
        rounding += weight * pr + 2 * _EPS * abs(bk * pv)
    log_tail = math.fsum(terms)
    rounding += _EPS * abs(log_tail)

    # value = (head rounded once) * exp(log_tail) with log_tail off by at most
    # err = tail + zeta + rounding; rho covers the division, exp and product.
    err = tail + zeta + rounding
    rho = 2 * (_EPS + _LIBM)
    try:
        value = num / den * math.exp(log_tail)
        share = abs(value) * math.expm1(err) / err
        spread = abs(value) * math.exp(err)
    except OverflowError:
        raise ValueError(
            f"Euler product {spec.name!r} leaves float range: log of the tail "
            f"{log_tail:.3g}, its error {err:.3g}"
        ) from None
    parts = {
        "tail_bound": share * tail,
        "zeta_bound": share * zeta,
        "rounding_bound": share * rounding + spread * rho / (1 - rho),
    }
    bound = parts["tail_bound"] + parts["zeta_bound"] + parts["rounding_bound"]
    if stats is not None:
        stats.update(head_cutoff=cutoff, head_primes=len(primes), series_terms=terms_k, **parts)
    return BoundedValue(value, bound)


def _poly_product(name: str, coeffs: list[int]) -> BoundedValue:
    if coeffs[0] == 1 and not any(coeffs[1:]):
        # every local factor is exactly 1 (the cocyclic deviation at n = 2)
        return BoundedValue.exact(1)
    return euler_product(EulerProductSpec.from_inverse_p_polynomial(name, coeffs))


def corank_probability(n: int, k: int) -> BoundedValue:
    """Limiting proportion of subrings of Z^n with corank exactly k (n <= 4)."""
    if n == 2:
        if k != 1:
            raise ValueError("every proper subring of Z^2 has corank 1")
        return BoundedValue(1.0, 0.0)
    if n == 3:
        p31 = zeta_int(2) * _poly_product("corank1-z3", _deviation(3, 1))
        if k == 1:
            return p31
        if k == 2:
            return 1 - p31
        raise ValueError("proper subrings of Z^3 have corank 1 or 2")
    if n == 4:
        z2 = zeta_int(2)
        p41 = z2**3 * _poly_product("corank1-z4", _deviation(4, 1))
        if k == 1:
            return p41
        upto2 = z2**4 * _poly_product("corank12-z4", _deviation(4, 2))
        if k == 2:
            return upto2 - p41
        if k == 3:
            return 1 - upto2
        raise ValueError("proper subrings of Z^4 have corank 1, 2 or 3")
    raise ValueError("absolute corank probabilities are known only for n <= 4")


def _deviation(n: int, k: int) -> list[int]:
    """Coefficients a_0..a_d of the local factor sum_j a_j u^j (u = 1/p) of the
    corank <= k accumulation constant of Z^n, for k in {1, 2, 3}; m = C(n, 2).

    The factor is (1-u)^(m-1) (1 + (m-1) u) for k = 1, and (1-u)^(m-2) or
    (1-u)^(m-4) times a quartic in the displayed coefficients of
    `corank2_formula_coefficients` and `corank3_formula_coefficients` for
    k = 2 or 3.
    """
    m = binomial(n, 2)
    u = X
    if k == 1:
        power, factor = m - 1, 1 + (m - 1) * u
    elif k == 2:
        a, b = corank2_formula_coefficients(n)
        s = 2 * a + b - m
        power, factor = m - 2, 1 + (m - 2) * u + s * u**2 - (m - 2) * u**3 - (s + 1) * u**4
    else:
        a, b = corank2_formula_coefficients(n)
        c, d = corank3_formula_coefficients(n)
        power, factor = m - 4, (
            1
            + (m - 4) * u
            + (6 + 2 * a + b + c - 3 * m) * u**2
            + (-4 - 4 * a - 2 * b + 6 * c + 3 * d + 3 * m) * u**3
            + (1 + 2 * a + b - 7 * c + 2 * d - m) * u**4
        )
    poly = (1 - u) ** power * factor
    return [poly.terms.get((0, j, 0, 0), 0) for j in range(poly.degrees()[1] + 1)]


def tauberian_constant(n: int, k: int) -> BoundedValue:
    """Leading constant of the corank <= k accumulation growing like
    C X (log X)^(C(n,2) - 1), for k in {1, 2, 3}.

    The enclosure is absolute and its relative width grows with C(n, 2):
    the largest bound/value over k <= 3 is 1.6e-5 at n = 7, 4.2e-4 at
    n = 8, 3.0e-2 at n = 9 and 0.61 at n = 10 (k = 3).  A comparison with
    census counts must read bound/value, not the bound alone.
    """
    if k not in (1, 2, 3):
        raise ValueError("constants are computed only for corank 1, 2, 3")
    if n <= k:
        raise ValueError("need n > k")
    lead = BoundedValue.exact(Fraction(1, math.factorial(binomial(n, 2) - 1)))
    name = {1: "cocyclic", 2: "corank2", 3: "corank3"}[k]
    prod = _poly_product(f"{name}-constant-n{n}", _deviation(n, k))
    if k == 2:
        return zeta_int(2) * lead * prod
    return lead * prod


def tauberian_ratio(n: int, k_num: int, k_den: int) -> BoundedValue:
    return tauberian_constant(n, k_num) / tauberian_constant(n, k_den)


def _lattice_factor(n: int, k: int, p: int) -> tuple[int, int]:
    """Local probability that a cokernel has rank at most k, exactly, as an
    integer pair (numerator, denominator):

        prod_n^2 sum_{i<=k} 1 / (p^(i^2) prod_i^2 prod_(n-i)),
        prod_j = prod_{l<=j} (1 - p^-l) = A(j) / p^T(j),

    with A(j) = prod_{l<=j} (p^l - 1) and T(j) = j(j+1)/2.  Every term has a
    denominator dividing A(k)^2 A(n) times a power of p, because A(i) divides
    A(k) and A(n-i) divides A(n).

    Products over j are truncated once p^-j < 2^-70; the dropped factors are
    within 2^-69 of 1 and the caller absorbs that into its bound.
    """
    jmax = min(n, int(70 / math.log2(p)) + 1)
    big_a = [1]
    for j in range(1, jmax + 1):
        big_a.append(big_a[-1] * (p**j - 1))

    def a(j: int) -> int:
        return big_a[min(j, jmax)]

    def tri(j: int) -> int:
        j = min(j, jmax)
        return j * (j + 1) // 2

    exps = [2 * tri(i) + tri(n - i) - i * i - 2 * tri(n) for i in range(k + 1)]
    low = min(exps)
    num = a(n) * sum(
        p ** (e - low) * (a(k) // a(i)) ** 2 * (a(n) // a(n - i)) for i, e in enumerate(exps)
    )
    den = a(k) ** 2
    return (num * p**low, den) if low >= 0 else (num, den * p**-low)


def lattice_baseline(n: int, k: int) -> BoundedValue:
    """Proportion of sublattices of Z^n whose cokernel has rank at most k.

    The tail constant is sampled, not proven: 4 |factor(2) - 1| 2^t, t = (k+1)^2,
    at least 1.  The loop checks it up to p = 10^4, and a test at thirteen
    primes in (10^4, 10^6] for n = 50 and k <= 3, where |factor(p) - 1| p^t
    is about 1 against constants of 8.6 to 12.2.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    t = (k + 1) * (k + 1)
    num, den = _lattice_factor(n, k, 2)
    sample = abs(num / den - 1.0)
    c = max(sample * 2.0**t * 4.0, 1.0)
    spec = EulerProductSpec(
        name=f"lattice-corank{k}-n{n}",
        factor=lambda p: _lattice_factor(n, k, p),
        tail_exponent=t,
        tail_constant=c,
        cutoff=10**4,
    )
    out = euler_product(spec)
    return BoundedValue(out.value, out.bound + 1e-15)


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
