"""Exact multivariate polynomials and rational functions over Z in (p, x, y, z).

Rational functions are compared by cross-multiplication; no gcd reduction is
ever attempted.  Power series expansion inverts denominators with constant
term +-1 by truncated convolution, yielding coefficients that are exact
polynomials in p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

VARS = ("p", "x", "y", "z")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Expo = tuple[int, int, int, int]


class MPoly:
    """Multivariate polynomial with integer coefficients in p, x, y, z.

    Stored as a map from exponent 4-tuples to nonzero coefficients; iteration
    and printing use the sorted (canonical) monomial order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Expo, int] | None = None):
        self.terms: dict[Expo, int] = {}
        if terms:
            for expo, c in terms.items():
                if c:
                    self.terms[expo] = c

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls({(0, 0, 0, 0): int(c)})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        expo = [0, 0, 0, 0]
        expo[_VAR_INDEX[name]] = 1
        return cls({tuple(expo): 1})

    @classmethod
    def monomial(cls, c: int, ep: int = 0, ex: int = 0, ey: int = 0, ez: int = 0) -> "MPoly":
        return cls({(ep, ex, ey, ez): int(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> "MPoly":
        return MPoly({e: -c for e, c in self.terms.items()})

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, int):
            return MPoly.const(other)
        if isinstance(other, MPoly):
            return other
        raise TypeError(f"cannot combine MPoly with {type(other).__name__}")

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        out: dict[Expo, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def degrees(self) -> Expo:
        """Per-variable maximum exponents; (0, 0, 0, 0) for the zero polynomial."""
        if not self.terms:
            return (0, 0, 0, 0)
        return tuple(max(e[i] for e in self.terms) for i in range(4))  # type: ignore[return-value]

    def total_degree_xyz(self) -> int:
        if not self.terms:
            return 0
        return max(e[1] + e[2] + e[3] for e in self.terms)

    def substitute(self, mapping: dict[str, "MPoly | int"]) -> "MPoly":
        """Substitute polynomials (or integers) for variables."""
        images = []
        for i, name in enumerate(VARS):
            if name in mapping:
                img = mapping[name]
                images.append(MPoly.const(img) if isinstance(img, int) else img)
            else:
                images.append(MPoly.variable(name))
        out = MPoly()
        for e, c in self.terms.items():
            term = MPoly.const(c)
            for i in range(4):
                if e[i]:
                    term = term * images[i] ** e[i]
            out = out + term
        return out

    def eval(self, p=1, x=1, y=1, z=1):
        """Full numeric evaluation; exact for int or Fraction arguments."""
        vals = (p, x, y, z)
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def reciprocal_reversal(self) -> "MPoly":
        """Coefficient reversal: P composed with reciprocal arguments, cleared.

        Returns the polynomial whose value is P(1/p, 1/x, 1/y, 1/z) times the
        monomial of P's per-variable maximum degrees.
        """
        dp, dx, dy, dz = self.degrees()
        return MPoly(
            {(dp - e[0], dx - e[1], dy - e[2], dz - e[3]): c for e, c in self.terms.items()}
        )

    def derivative(self, var: str) -> "MPoly":
        i = _VAR_INDEX[var]
        out: dict[Expo, int] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MPoly(out)

    def sorted_terms(self) -> list[tuple[Expo, int]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [str(c)] if (abs(c) != 1 or e == (0, 0, 0, 0)) else (["-"] if c < 0 else [])
            body = [f"{name}^{k}" if k > 1 else name for name, k in zip(VARS, e) if k]
            text = "*".join(factors[0:1] + body) if factors != ["-"] else "-" + "*".join(body)
            parts.append(text)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MPoly({self})"


P = MPoly.variable("p")
X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")
ONE = MPoly.const(1)


@dataclass(frozen=True)
class RatFunc:
    """Ratio of integer polynomials; equality via cross-multiplication."""

    num: MPoly
    den: MPoly

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, MPoly)):
            other = RatFunc(other if isinstance(other, MPoly) else MPoly.const(other), ONE)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        if isinstance(other, (int, MPoly)):
            other = RatFunc(other if isinstance(other, MPoly) else MPoly.const(other), ONE)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __add__(self, other) -> "RatFunc":
        if isinstance(other, (int, MPoly)):
            other = RatFunc(other if isinstance(other, MPoly) else MPoly.const(other), ONE)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        if isinstance(other, (int, MPoly)):
            other = RatFunc(other if isinstance(other, MPoly) else MPoly.const(other), ONE)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def substitute(self, mapping: dict[str, MPoly | int]) -> "RatFunc":
        den = self.den.substitute(mapping)
        if den.is_zero():
            raise ZeroDivisionError("substitution annihilates the denominator")
        return RatFunc(self.num.substitute(mapping), den)

    def reciprocal_arguments(self) -> "RatFunc":
        """The function with every variable replaced by its reciprocal.

        Both numerator and denominator are cleared by their own max-degree
        monomials, so the result is again a ratio of polynomials.
        """
        rn = self.num.reciprocal_reversal()
        rd = self.den.reciprocal_reversal()
        np_, nx, ny, nz = self.num.degrees()
        dp, dx, dy, dz = self.den.degrees()
        return RatFunc(
            rn * MPoly.monomial(1, dp, dx, dy, dz),
            rd * MPoly.monomial(1, np_, nx, ny, nz),
        )

    def derivative(self, var: str) -> "RatFunc":
        """Quotient-rule derivative, unnormalized: (n'd - nd') / d^2."""
        return RatFunc(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def eval(self, p=1, x=1, y=1, z=1) -> Fraction:
        den = self.den.eval(p, x, y, z)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return Fraction(self.num.eval(p, x, y, z), den)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def specialize(f: RatFunc, assignment: dict[str, str | int]) -> RatFunc:
    """Send each of x, y, z to the variable x or to 0 (p is untouched)."""
    mapping: dict[str, MPoly | int] = {}
    for var, target in assignment.items():
        if var not in ("x", "y", "z"):
            raise ValueError(f"only x, y, z may be specialized, not {var!r}")
        if target == "x":
            mapping[var] = X
        elif target == 0:
            mapping[var] = 0
        else:
            raise ValueError(f"specialization target must be 'x' or 0, not {target!r}")
    return f.substitute(mapping)


def functional_equation_check(f: RatFunc, multiplier: MPoly) -> bool:
    """Exact check that f at reciprocal arguments equals multiplier * f.

    The multiplier must be a signed monomial (e.g. -p^3 x y z); comparison is
    by cross-multiplication after clearing reciprocals monomially.
    """
    if not multiplier.is_monomial():
        raise ValueError("multiplier must be a single signed monomial")
    return f.reciprocal_arguments() == f * multiplier


@dataclass
class SeriesTable:
    """Truncated power-series coefficients of a rational function.

    coefficients maps (a, b, c) exponent triples of x^a y^b z^c to exact
    polynomials in p.  Every stored key satisfies the per-variable bounds and
    the total-degree bound.
    """

    bounds: tuple[int, int, int]
    total: int
    coefficients: dict[tuple[int, int, int], MPoly]

    def coefficient(self, a: int, b: int = 0, c: int = 0) -> MPoly:
        if a > self.bounds[0] or b > self.bounds[1] or c > self.bounds[2] or a + b + c > self.total:
            raise KeyError(f"coefficient ({a},{b},{c}) is beyond the truncation bounds")
        return self.coefficients.get((a, b, c), MPoly())

    def x_coefficient(self, e: int) -> MPoly:
        return self.coefficient(e, 0, 0)

    def x_coefficient_at(self, e: int, p: int) -> int:
        return self.coefficient(e, 0, 0).eval(p=p)


def expand(
    f: RatFunc, bounds: tuple[int, int, int] | int, total: int | None = None
) -> SeriesTable:
    """Expand f as a power series in x, y, z up to the given bounds.

    The denominator must have constant term +-1 in (x, y, z): write it as
    c0 (1 - g) with g free of constant term, then 1/(1 - g) = sum g^m; the
    convolution is truncated at the bounds after every multiplication.
    Coefficients are exact polynomials in p.
    """
    if isinstance(bounds, int):
        bounds = (bounds, 0, 0)
    bx, by, bz = bounds
    if min(bx, by, bz) < 0:
        raise ValueError("bounds must be nonnegative")
    if total is None:
        total = bx + by + bz
    const_terms = {e: c for e, c in f.den.terms.items() if e[1] == e[2] == e[3] == 0}
    if list(const_terms.keys()) != [(0, 0, 0, 0)] or const_terms[(0, 0, 0, 0)] not in (1, -1):
        raise ValueError("denominator constant term in (x, y, z) must be +1 or -1")
    c0 = const_terms[(0, 0, 0, 0)]
    # den = c0 (1 - g)  =>  g has coefficient -c/c0 = -c*c0 at each nonconstant term
    g_items = [
        (-c * c0, e[0], e[1], e[2], e[3])
        for e, c in f.den.terms.items()
        if e[1] or e[2] or e[3]
    ]

    def trunc_num() -> dict[tuple[int, int, int], dict[int, int]]:
        acc: dict[tuple[int, int, int], dict[int, int]] = {}
        for e, c in f.num.terms.items():
            a, b, cz = e[1], e[2], e[3]
            if a > bx or b > by or cz > bz or a + b + cz > total:
                continue
            acc.setdefault((a, b, cz), {})[e[0]] = acc.get((a, b, cz), {}).get(e[0], 0) + c
        return acc

    def mul_g(acc: dict[tuple[int, int, int], dict[int, int]]):
        out: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, cz), pd in acc.items():
            for gc, gp, gx, gy, gz in g_items:
                na, nb, nc = a + gx, b + gy, cz + gz
                if na > bx or nb > by or nc > bz or na + nb + nc > total:
                    continue
                target = out.setdefault((na, nb, nc), {})
                for pe, c in pd.items():
                    npe = pe + gp
                    s = target.get(npe, 0) + c * gc
                    if s:
                        target[npe] = s
                    else:
                        target.pop(npe, None)
        return {k: v for k, v in out.items() if v}

    acc = trunc_num()
    series: dict[tuple[int, int, int], dict[int, int]] = {}

    def fold(src) -> None:
        for key, pd in src.items():
            target = series.setdefault(key, {})
            for pe, c in pd.items():
                s = target.get(pe, 0) + c
                if s:
                    target[pe] = s
                else:
                    target.pop(pe, None)

    fold(acc)
    for _ in range(total):
        acc = mul_g(acc)
        if not acc:
            break
        fold(acc)

    coefficients = {
        key: MPoly({(pe, 0, 0, 0): c * c0 for pe, c in pd.items()})
        for key, pd in series.items()
        if pd
    }
    coefficients = {k: v for k, v in coefficients.items() if not v.is_zero()}
    return SeriesTable((bx, by, bz), total, coefficients)
